type 'a t = {
  lock : Mutex.t;
  wake : Condition.t;  (* signalled on every admission and on shutdown *)
  items : 'a Queue.t;
  max_queue : int;
  mutable shutting_down : bool;
  mutable accepted : int;
  mutable overloaded : int;
  mutable rejected_shutdown : int;
  mutable completed : int;
}

type submit_result = Accepted | Overloaded | Shutting_down

let create ~max_queue () =
  if max_queue < 1 then invalid_arg "Supervisor.create: max_queue >= 1";
  { lock = Mutex.create ();
    wake = Condition.create ();
    items = Queue.create ();
    max_queue;
    shutting_down = false;
    accepted = 0;
    overloaded = 0;
    rejected_shutdown = 0;
    completed = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let submit t x =
  locked t (fun () ->
      if t.shutting_down then begin
        t.rejected_shutdown <- t.rejected_shutdown + 1;
        Shutting_down
      end
      else if Queue.length t.items >= t.max_queue then begin
        t.overloaded <- t.overloaded + 1;
        Overloaded
      end
      else begin
        Queue.add x t.items;
        t.accepted <- t.accepted + 1;
        Condition.signal t.wake;
        Accepted
      end)

let take t =
  locked t (fun () ->
      let rec next () =
        match Queue.take_opt t.items with
        | Some _ as x -> x
        | None when t.shutting_down -> None
        | None ->
            Condition.wait t.wake t.lock;
            next ()
      in
      next ())

let begin_shutdown t =
  locked t (fun () ->
      t.shutting_down <- true;
      Condition.broadcast t.wake)
let is_shutting_down t = locked t (fun () -> t.shutting_down)

let drained t =
  locked t (fun () -> t.shutting_down && Queue.is_empty t.items)

let pending t = locked t (fun () -> Queue.length t.items)
let note_completed t = locked t (fun () -> t.completed <- t.completed + 1)

type stats = {
  accepted : int;
  overloaded : int;
  rejected_shutdown : int;
  completed : int;
}

let stats t =
  locked t (fun () ->
      { accepted = t.accepted;
        overloaded = t.overloaded;
        rejected_shutdown = t.rejected_shutdown;
        completed = t.completed })
