(** A binary min-heap of ints, unboxed in one growable int array.

    Unlike {!Heap}'s boxed [(priority, value)] entries, a push or a pop
    allocates nothing and writes no pointer.  Callers pack a priority and
    a payload into one int (e.g. [time lsl bits lor id]), which also fixes
    the order between equal priorities. *)

type t

val create : unit -> t
val is_empty : t -> bool

val top : t -> int
(** The smallest element.  @raise Invalid_argument if empty. *)

val push : t -> int -> unit
(** Amortized O(log n). *)

val pop : t -> int
(** Removes and returns the smallest element.
    @raise Invalid_argument if empty. *)
