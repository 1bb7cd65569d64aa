include Ssta_runtime.Json
