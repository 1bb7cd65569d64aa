module Netlist = Ssta_circuit.Netlist
module Corner = Ssta_tech.Corner
module Elmore = Ssta_tech.Elmore

type path = { nodes : int array; delay : float }

type enumeration = {
  paths : path list;
  truncated : bool;
  critical_delay : float;
  slack : float;
  explored : int;
  deadline_hit : bool;
  pops : int;
}

let path_gates g p =
  Array.to_list p.nodes
  |> List.filter_map (fun id ->
         if Graph.is_input g id then None else Some (Graph.electrical_exn g id))

let path_gate_count g p =
  Array.fold_left
    (fun acc id -> if Graph.is_input g id then acc else acc + 1)
    0 p.nodes

let worst_case_delay ?corner_k g p =
  if Array.for_all (Graph.is_input g) p.nodes then 0.0
  else
    let delay = Elmore.delay_at (Corner.point ?k:corner_k Corner.Worst) in
    Array.fold_left
      (fun acc id ->
        if Graph.is_input g id then acc
        else acc +. delay (Graph.electrical_exn g id))
      0.0 p.nodes

(* The same left-to-right sum as a fold from 0.0, with the running
   total unboxed: a fold's float accumulator is boxed at every step. *)
let recompute_delay g nodes =
  let delay = g.Graph.delay in
  let acc = ref 0.0 in
  for k = 0 to Array.length nodes - 1 do
    acc := !acc +. delay.(nodes.(k))
  done;
  !acc

(* ----- best-first enumeration -----

   A candidate is a partial path: a suffix from some node [head] down to
   a primary output, with [tail_delay] the delay of the suffix excluding
   [head].  [bound] = tail_delay + labels(head) is the delay of the best
   full path completing this suffix (the labels are exactly the
   backward-looking optimistic bound), so expanding candidates in
   decreasing [bound] order emits complete paths in decreasing delay
   order: the first K emitted paths are the K longest.  This is what
   makes a [max_paths] budget honest — a capped enumeration is a prefix
   of the uncapped ranking, not an arbitrary subset of it. *)

type cand = {
  bucket : int;  (** optimistic delay bound quantized to the tie tick *)
  depth : int;  (** suffix length — larger is closer to completion *)
  head : int;
  tail_delay : float;
  suffix : int list;  (** [head] first, output last *)
}

(* Priority: larger bound first, compared through a fixed quantization
   grid rather than exactly.  Two partial paths of the same full path
   set accumulate [tail_delay] in different orders, so exact-tied paths
   (ubiquitous in symmetric circuits — c6288 has ~1e20 of them) get
   bounds differing by a few ulp.  Comparing raw floats then orders the
   frontier by that noise, which degenerates into a breadth-first sweep
   of the whole tied cone: on c6288 the search pops tens of millions of
   candidates without ever completing a path.  Bucketing by a fixed tick
   (transitive, unlike an epsilon-compare) restores honest ties, and the
   depth tie-break makes tied exploration depth-first, so every
   completion costs O(path length) pops.  The final suffix comparison
   keeps the order total and deterministic. *)
let cand_before a b =
  a.bucket > b.bucket
  || (a.bucket = b.bucket
      && (a.depth > b.depth
          || (a.depth = b.depth
              && List.compare Int.compare a.suffix b.suffix < 0)))

module Heap = struct
  type t = { mutable items : cand array; mutable size : int }

  let dummy =
    { bucket = min_int;
      depth = 0;
      head = -1;
      tail_delay = 0.0;
      suffix = [] }

  let create () = { items = Array.make 64 dummy; size = 0 }
  let is_empty h = h.size = 0

  let push h c =
    if h.size = Array.length h.items then begin
      let bigger = Array.make (2 * h.size) dummy in
      Array.blit h.items 0 bigger 0 h.size;
      h.items <- bigger
    end;
    let i = ref h.size in
    h.size <- h.size + 1;
    h.items.(!i) <- c;
    (* sift up *)
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let parent = (!i - 1) / 2 in
      if cand_before h.items.(!i) h.items.(parent) then begin
        let tmp = h.items.(parent) in
        h.items.(parent) <- h.items.(!i);
        h.items.(!i) <- tmp;
        i := parent
      end
      else continue_ := false
    done

  let pop h =
    let top = h.items.(0) in
    h.size <- h.size - 1;
    h.items.(0) <- h.items.(h.size);
    h.items.(h.size) <- dummy;
    (* sift down *)
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let best = ref !i in
      if l < h.size && cand_before h.items.(l) h.items.(!best) then best := l;
      if r < h.size && cand_before h.items.(r) h.items.(!best) then best := r;
      if !best <> !i then begin
        let tmp = h.items.(!best) in
        h.items.(!best) <- h.items.(!i);
        h.items.(!i) <- tmp;
        i := !best
      end
      else continue_ := false
    done;
    top
end

(* ----- per-endpoint streams and the deterministic merge -----

   The search decomposes exactly by primary output: a candidate seeded
   at output [o] only ever meets candidates from the same output, so
   the global frontier is the disjoint union of per-endpoint frontiers
   and the global pop order is reconstructible as a k-way merge — at
   every step, the next global pop is the [cand_before]-greatest of the
   per-endpoint heap tops.  Each endpoint's own pop sequence is
   self-contained (expanding a candidate touches only its endpoint's
   heap), so a stream is advanced only when the merge needs its next
   pop: one pop per merged candidate, plus at most one pending pop per
   stream when the search stops.  The merge consumes the pops in the
   exact order the historical single-heap search would have popped
   them, so the result is byte-identical to it. *)

type stream = {
  sheap : Heap.t;
  mutable next : cand option;  (* popped, not yet merged *)
  mutable spops : int;  (* heap pops so far, merged or pending *)
}

(* Pop and expand one candidate of a stream whose head the merge took
   (or has not seen yet), unless its heap is empty. *)
let advance g ~labels ~threshold ~bucket_of ~prune s =
  if Option.is_none s.next && not (Heap.is_empty s.sheap) then begin
    let c = Heap.pop s.sheap in
    if not (Graph.is_input g c.head) then begin
      let tail_delay = c.tail_delay +. g.Graph.delay.(c.head) in
      let fanins = Graph.fanins g c.head in
      for k = 0 to Array.length fanins - 1 do
        let u = fanins.(k) in
        let bound = tail_delay +. labels.(u) in
        if bound >= threshold && not (prune u) then
          Heap.push s.sheap
            { bucket = bucket_of bound;
              depth = c.depth + 1;
              head = u;
              tail_delay;
              suffix = u :: c.suffix }
      done
    end;
    s.next <- Some c;
    s.spops <- s.spops + 1
  end

let enumerate ?(max_paths = 200_000) ?(should_stop = fun () -> false)
    ?(prune = fun _ -> false) g ~labels ~slack =
  if slack < 0.0 then invalid_arg "Paths.enumerate: slack must be >= 0";
  if max_paths < 1 then invalid_arg "Paths.enumerate: max_paths must be >= 1";
  let critical = Longest_path.critical_delay g labels in
  let eps = 1e-15 +. (1e-12 *. Float.abs critical) in
  let threshold = critical -. slack -. eps in
  (* Tie tick for the priority order: well above ulp-level summation
     noise (~1e-22 s at gate-delay scale), well below real inter-path
     delay differences. *)
  let bucket_of bound = int_of_float (Float.floor (bound /. eps)) in
  let streams =
    Array.of_list
      (List.filter_map
         (fun o ->
           if labels.(o) >= threshold && not (prune o) then begin
             let sheap = Heap.create () in
             Heap.push sheap
               { bucket = bucket_of labels.(o);
                 depth = 1;
                 head = o;
                 tail_delay = 0.0;
                 suffix = [ o ] };
             Some { sheap; next = None; spops = 0 }
           end
           else None)
         (Array.to_list g.Graph.circuit.Netlist.outputs))
  in
  let collected = ref [] in
  let count = ref 0 in
  let explored = ref 0 in
  let truncated = ref false in
  let deadline_hit = ref false in
  let running = ref true in
  while !running do
    (* The next global pop: the cand_before-greatest stream head.
       Suffixes of distinct endpoints differ, so the order is total and
       the winner unique.  Only the stream merged last needs a pop to
       show its head.  An index loop: the scan runs once per pop and
       allocates nothing. *)
    let best = ref (-1) in
    for i = 0 to Array.length streams - 1 do
      let s = streams.(i) in
      advance g ~labels ~threshold ~bucket_of ~prune s;
      match s.next with
      | Some c
        when !best < 0
             || cand_before c (Option.get streams.(!best).next) ->
          best := i
      | _ -> ()
    done;
    if !best < 0 then running := false
    else
      let s = streams.(!best) in
      let c = Option.get s.next in
      if !count >= max_paths then begin
        truncated := true;
        running := false
      end
      else if should_stop () then begin
        deadline_hit := true;
        running := false
      end
      else begin
        s.next <- None;
        incr explored;
        if Graph.is_input g c.head then begin
          incr count;
          let nodes = Array.of_list c.suffix in
          collected :=
            { nodes; delay = recompute_delay g nodes } :: !collected
        end
      end
  done;
  (* Emission order is already non-increasing in the heap bound; the
     stable sort only repairs last-ulp drift between the incremental
     bound and the recomputed forward sum. *)
  let paths =
    List.stable_sort (fun a b -> compare b.delay a.delay) (List.rev !collected)
  in
  { paths;
    truncated = !truncated;
    critical_delay = critical;
    slack;
    explored = !explored;
    deadline_hit = !deadline_hit;
    pops = Array.fold_left (fun acc s -> acc + s.spops) 0 streams }

let is_path g nodes =
  let n = Array.length nodes in
  if n = 0 then false
  else if not (Graph.is_input g nodes.(0)) then false
  else if
    not
      (Array.exists
         (fun o -> o = nodes.(n - 1))
         g.Graph.circuit.Netlist.outputs)
  then false
  else begin
    let ok = ref true in
    for i = 1 to n - 1 do
      let fanins = Graph.fanins g nodes.(i) in
      if not (Array.exists (fun f -> f = nodes.(i - 1)) fanins) then ok := false
    done;
    !ok
  end
