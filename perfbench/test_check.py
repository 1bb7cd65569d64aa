#!/usr/bin/env python3
"""Tests of the benchmark's answer checker.

Run from the repository root after `dune build`:

    python3 perfbench/test_check.py

The unit tests tamper with canned answers; the end-to-end tests take real
answers from ssta_cli.exe, check them against the references replay.exe
computes, then tamper with them and expect the check to fail.
"""

import json
import math
import os
import sys
import tempfile
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

DELAY = 1.2345678901234567e-10
REPORT = '{"circuit":"c17","critical_delay_s":%r,' \
         '"paths":[{"prob_rank":1,"det_rank":1}]}' % DELAY


def response(report=REPORT, status="ok", rid=7):
    return '{"id":%d,"status":"%s","circuit":"c17","degradations":[],' \
           '"report":%s}' % (rid, status, report)


class CheckAnswer(unittest.TestCase):
    def test_cli_exact_bytes(self):
        ref = {"report": REPORT}
        self.assertTrue(run.check_answer("cli", REPORT + "\n", ref))
        self.assertFalse(run.check_answer("cli", REPORT, ref))
        self.assertFalse(run.check_answer(
            "cli", REPORT.replace(repr(DELAY), "1.2345e-10") + "\n", ref))
        self.assertFalse(run.check_answer("cli", None, ref))

    def test_serve_report(self):
        ref = {"report": REPORT}
        self.assertTrue(run.check_answer("serve", response(), ref, 7))
        # One ulp away in one float.
        tampered = REPORT.replace(repr(DELAY),
                                  repr(math.nextafter(DELAY, math.inf)))
        self.assertFalse(run.check_answer("serve", response(tampered), ref, 7))
        self.assertFalse(run.check_answer(
            "serve", response(status="degraded"), ref, 7))
        self.assertFalse(run.check_answer("serve", response(rid=8), ref, 7))
        self.assertFalse(run.check_answer("serve", "{not json", ref, 7))
        self.assertFalse(run.check_answer(
            "serve", '{"id":7,"status":"error","kind":"numeric"}', ref, 7))

    def test_serve_fields(self):
        ref = {"fields": {"paths": 4, "sigma_c_s": 2.5e-12}}
        good = '{"id":1,"status":"ok","paths":4,"sigma_c_s":2.5e-12,"x":0}'
        self.assertTrue(run.check_answer("serve", good, ref, 1))
        self.assertFalse(run.check_answer(
            "serve", good.replace('"paths":4', '"paths":5'), ref, 1))
        self.assertFalse(run.check_answer(
            "serve", '{"id":1,"status":"ok","paths":4}', ref, 1))


@unittest.skipUnless(os.path.exists(run.CLI) and os.path.exists(run.REPLAY),
                     "build ssta_cli.exe and replay.exe first (dune build)")
class EndToEnd(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.tmp = tempfile.TemporaryDirectory()
        cls.gen = os.path.join(cls.tmp.name, "gen")
        run.generate(cls.gen, ["c432"])

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def refs(self, lines):
        path = os.path.join(self.tmp.name, "requests.tsv")
        run.write_requests(path, lines)
        return [json.loads(l) for l in run.helper("refs", self.gen, path)]

    def test_cli_answer_and_tampered_answer(self):
        _, answer, _ = run.cli_request(self.gen, "c432", "0.05")
        [ref] = self.refs([("T", "cli", "c432", "0.05")])
        self.assertTrue(run.check_answer("cli", answer, ref))
        digit = next(i for i, c in enumerate(answer)
                     if c.isdigit() and answer[i - 1] == ".")
        tampered = answer[:digit] + str((int(answer[digit]) + 1) % 10) + \
            answer[digit + 1:]
        self.assertFalse(run.check_answer("cli", tampered, ref))

    def test_served_answers_and_tampered_answers(self):
        server = run.Server(self.gen, "c432")
        try:
            lines = ['{"id":1,"op":"run","max_paths":50,"confidence":0.05}',
                     '{"id":2,"op":"query","endpoint":"%s"}' %
                     self.first_output(),
                     '{"id":3,"op":"what-if","edits":"resize %s 1.3"}' %
                     self.first_gate(),
                     '{"id":4,"op":"run","engine":"block",'
                     '"max_policy":"clark"}']
            answers = [server.request(l)[1] for l in lines]
        finally:
            server.close()
        refs = self.refs([("T", "serve", "c432", l) for l in lines])
        for i, (a, ref) in enumerate(zip(answers, refs)):
            self.assertTrue(run.check_answer("serve", a, ref, i + 1), a[:200])
            r = json.loads(a)
            if "report" in r:
                r["report"]["critical_delay_s"] *= 1.0 + 1e-15
            else:
                r["mean_s" if "mean_s" in r else "paths"] += 1
            self.assertFalse(run.check_answer(
                "serve", json.dumps(r), ref, i + 1))

    def test_tampered_answer_is_counted_as_failed(self):
        workload = types.SimpleNamespace(designs=["c432"], served=True,
                                         stateful=False)
        session = run.Session(self.gen, workload)
        session.start()
        try:
            for _ in range(2):
                session.send("T", ("serve", "c432",
                                   dict(op="run", max_paths=20)))
        finally:
            session.close()
        self.assertEqual(run.check_session(session, self.tmp.name),
                         (2, 0, 0))
        phase, kind, design, line, answer, lat = session.sent[1]
        r = json.loads(answer)
        r["report"]["sigma_c_s"] *= 1.0 + 1e-15
        session.sent[1] = (phase, kind, design, line, json.dumps(r), lat)
        self.assertEqual(run.check_session(session, self.tmp.name),
                         (2, 1, 0))

    def first_output(self):
        with open(os.path.join(self.gen, "c432.bench")) as f:
            return next(l.strip()[7:-1] for l in f if l.startswith("OUTPUT("))

    def first_gate(self):
        with open(os.path.join(self.gen, "c432.bench")) as f:
            return next(l.split("=")[0].strip() for l in f if "=" in l)


if __name__ == "__main__":
    unittest.main()
