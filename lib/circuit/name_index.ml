(* Open addressing with linear probing over a power-of-two bucket array
   at most half full; a bucket holds slot + 1 (0 = empty).  Slots are
   dense, so keys and values live in plain arrays indexed by slot. *)

type t = {
  mutable keys : string array;
  mutable values : int array;
  mutable count : int;
  mutable buckets : int array;
}

let create n =
  let cap = ref 16 in
  while !cap < 2 * n do cap := 2 * !cap done;
  let slots = Int.max 8 n in
  { keys = Array.make slots "";
    values = Array.make slots (-1);
    count = 0;
    buckets = Array.make !cap 0 }

let length t = t.count

(* FNV-1a over the bytes, high half folded into the low bits that pick
   the bucket. *)
let hash_sub s off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29)

let equal_sub key s off len =
  String.length key = len
  &&
  let i = ref 0 in
  while
    !i < len
    && Char.equal (String.unsafe_get key !i) (String.unsafe_get s (off + !i))
  do
    incr i
  done;
  !i = len

(* The bucket index holding [s[off, off+len)], or the empty bucket where
   it would go. *)
let probe t h s off len =
  let buckets = t.buckets in
  let mask = Array.length buckets - 1 in
  let i = ref (h land mask) and found = ref (-1) in
  while !found < 0 do
    let b = Array.unsafe_get buckets !i in
    if b = 0 || equal_sub (Array.unsafe_get t.keys (b - 1)) s off len then
      found := !i
    else i := (!i + 1) land mask
  done;
  !found

let check_range s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Name_index: substring out of range"

let find t s =
  let len = String.length s in
  t.buckets.(probe t (hash_sub s 0 len) s 0 len) - 1

(* Rebuild the buckets at [cap] for the keys so far. *)
let rehash t cap =
  let mask = cap - 1 in
  let buckets = Array.make cap 0 in
  for slot = 0 to t.count - 1 do
    let key = t.keys.(slot) in
    let i = ref (hash_sub key 0 (String.length key) land mask) in
    while buckets.(!i) <> 0 do i := (!i + 1) land mask done;
    buckets.(!i) <- slot + 1
  done;
  t.buckets <- buckets

(* [bucket] is where [probe] found no key. *)
let add t bucket key =
  let slot = t.count in
  if slot = Array.length t.keys then begin
    let extend a fill =
      let a' = Array.make (Int.max 8 (2 * slot)) fill in
      Array.blit a 0 a' 0 slot;
      a'
    in
    t.keys <- extend t.keys "";
    t.values <- extend t.values (-1)
  end;
  t.keys.(slot) <- key;
  t.count <- slot + 1;
  if 2 * t.count > Array.length t.buckets then
    rehash t (2 * Array.length t.buckets)
  else t.buckets.(bucket) <- slot + 1;
  slot

let intern_gen t s off len ~whole =
  check_range s off len;
  let bucket = probe t (hash_sub s off len) s off len in
  let b = t.buckets.(bucket) in
  if b > 0 then b - 1
  else add t bucket (if whole then s else String.sub s off len)

let intern_sub t s off len =
  intern_gen t s off len ~whole:(off = 0 && len = String.length s)

let intern t s = intern_gen t s 0 (String.length s) ~whole:true

let trim t =
  if t.count < Array.length t.keys then begin
    t.keys <- Array.sub t.keys 0 t.count;
    t.values <- Array.sub t.values 0 t.count
  end

let check_slot t slot =
  if slot < 0 || slot >= t.count then invalid_arg "Name_index: bad slot"

let key t slot = check_slot t slot; t.keys.(slot)
let value t slot = check_slot t slot; t.values.(slot)
let set_value t slot v = check_slot t slot; t.values.(slot) <- v
