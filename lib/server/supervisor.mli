(** Bounded request queue with backpressure and drain-on-shutdown.

    The serve loop runs one reader (producer) and one dispatcher
    (consumer).  The queue between them is bounded: when [max_queue]
    requests are already waiting, {!submit} answers {!Overloaded}
    immediately instead of buffering without limit — the reader turns
    that into a retryable ["overloaded"] response, so a flooding client
    slows itself down rather than the server.

    Shutdown is graceful by construction: {!begin_shutdown} stops
    admissions (new submissions answer {!Shutting_down}) but the
    dispatcher keeps draining what was already accepted;
    {!drained} turns true only when the queue is empty again.

    The consumer blocks in {!take} on a condition variable that
    {!submit} and {!begin_shutdown} signal, so an idle consumer burns
    no CPU and a submission wakes it at once. *)

type 'a t

type submit_result = Accepted | Overloaded | Shutting_down

val create : max_queue:int -> unit -> 'a t
(** Raises [Invalid_argument] when [max_queue < 1]. *)

val submit : 'a t -> 'a -> submit_result

val take : 'a t -> 'a option
(** Pop the oldest accepted item (FIFO), waiting while the queue is
    empty; [None] once shutdown was requested and every accepted item
    has been taken.  Accepted items remain takeable after
    {!begin_shutdown} — that is the drain. *)

val begin_shutdown : 'a t -> unit
(** Idempotent.  Wakes every consumer blocked in {!take}. *)

val is_shutting_down : 'a t -> bool

val drained : 'a t -> bool
(** Shutdown was requested and every accepted item has been taken. *)

val pending : 'a t -> int

val note_completed : 'a t -> unit
(** Count one dispatched request as fully answered (statistics only). *)

type stats = {
  accepted : int;
  overloaded : int;  (** submissions refused by backpressure *)
  rejected_shutdown : int;  (** submissions refused after shutdown *)
  completed : int;
}

val stats : 'a t -> stats
