(** Array-backed binary min-heap keyed by integer priority.

    Used as the completion queue of cluster simulators (priority = completion
    time) and as the global event queue of the simulation driver.  Stable
    order between equal priorities is {e not} guaranteed; callers that need
    determinism across equal keys must encode a tie-breaker into the
    priority or sort popped batches. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val add : 'a t -> prio:int -> 'a -> unit
(** Amortized O(log n). *)

val min_prio : 'a t -> int option
(** Smallest priority currently stored, without removing it. *)

val top_prio : 'a t -> int
(** {!min_prio} without the option: [max_int] when the heap is empty. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the entry with the smallest priority. *)

val pop_le : 'a t -> int -> (int * 'a) option
(** [pop_le h bound] pops the minimum entry only if its priority is
    [<= bound]. *)

val remove_first : 'a t -> ('a -> bool) -> (int * 'a) option
(** Removes the first stored entry (in unspecified internal order) whose
    value satisfies the predicate; O(n).  Used to kill the running job of a
    failed machine — failures are rare, so a linear scan beats maintaining
    an index. *)

val clear : 'a t -> unit
val to_list : 'a t -> (int * 'a) list
(** Snapshot in unspecified order (for debugging / tests). *)
