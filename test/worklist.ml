(* A monotone worklist solver over the netlist DAG, kept as a test
   oracle for the library's one-pass sweeps.  It iterates

     value(n) = transfer n (init n  JOIN  join over preds p of value(p))

   to the least fixpoint, where the predecessors are the fan-ins in a
   [Forward] analysis and the fan-out consumers in a [Backward] one.  A
   node whose value changes re-queues its successors, so the result
   does not rely on node ids being topological; on a DAG with a
   monotone transfer it terminates without widening. *)

module Netlist = Ssta_circuit.Netlist

type direction = Forward | Backward

module type DOMAIN = sig
  type t

  val bottom : t
  val equal : t -> t -> bool
  val join : t -> t -> t
end

module Make (D : DOMAIN) = struct
  let fixpoint ?(direction = Forward) (c : Netlist.t) ~init ~transfer =
    let n = Netlist.num_nodes c in
    let fanouts = Netlist.fanouts c in
    let fanins id =
      if Netlist.is_input c id then [||] else (Netlist.gate_of c id).Netlist.fanins
    in
    let preds, succs =
      match direction with
      | Forward -> (fanins, fun id -> fanouts.(id))
      | Backward -> ((fun id -> fanouts.(id)), fanins)
    in
    let values = Array.make n D.bottom in
    let queue = Queue.create () in
    let queued = Array.make n false in
    let push id =
      if not queued.(id) then begin
        queued.(id) <- true;
        Queue.add id queue
      end
    in
    (match direction with
    | Forward ->
        for id = 0 to n - 1 do
          push id
        done
    | Backward ->
        for id = n - 1 downto 0 do
          push id
        done);
    while not (Queue.is_empty queue) do
      let id = Queue.pop queue in
      queued.(id) <- false;
      let inflow =
        Array.fold_left
          (fun acc p -> D.join acc values.(p))
          (init id) (preds id)
      in
      let out = transfer ~node:id inflow in
      if not (D.equal out values.(id)) then begin
        values.(id) <- out;
        Array.iter push (succs id)
      end
    done;
    values
end
