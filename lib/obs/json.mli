(** Minimal JSON tree: one shared emitter (and parser) for every
    machine-readable dump in the repository.

    The hand-rolled [Printf]-JSON this replaces could emit invalid documents
    whenever a string value contained a quote, backslash, or control
    character; {!to_string} escapes properly, formats floats so they
    round-trip through {!of_string}, and maps non-finite floats to [null]
    (JSON has no representation for them). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialize.  [pretty] (default false) adds newlines and two-space
    indentation. *)

val to_buffer : Buffer.t -> t -> unit
(** Compact serialization into an existing buffer. *)

val pp : Format.formatter -> t -> unit
(** Pretty serialization on a formatter. *)

val escape_string : string -> string
(** The JSON escape of a string {e including} the surrounding quotes. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document.  Numbers without [.], [e] or [E] parse
    as [Int] (falling back to [Float] past [max_int]); [\uXXXX] escapes,
    including surrogate pairs, decode to UTF-8.  Errors carry a byte
    offset.  Equivalent to {!parse} under {!default_limits} with the error
    rendered by {!error_to_string}. *)

(** {1 Untrusted input}

    The socket server parses attacker-controlled bytes, so the parser is
    total: no input may raise.  Both entry points enforce a nesting-depth
    bound (the recursive-descent parser burns one stack frame per level —
    without the bound, ["[[[["...] overflows the stack) and a document-size
    bound, and report violations as typed errors. *)

type limits = {
  max_depth : int;  (** maximum container nesting (top level = 1) *)
  max_bytes : int;  (** maximum document size in bytes *)
}

val default_limits : limits
(** 128 levels, 64 MiB. *)

type error = { offset : int; kind : error_kind }

and error_kind =
  | Syntax of string  (** malformed JSON, with a human-readable reason *)
  | Too_deep of int  (** nesting exceeded the limit (carried) *)
  | Too_large of { size : int; limit : int }

val parse : ?limits:limits -> string -> (t, error) result
(** Like {!of_string} with caller-chosen [limits] and structured errors.
    Never raises, whatever the input bytes. *)

val error_to_string : error -> string

(** {1 Accessors} (used by the trace validator) *)

val member : t -> string -> t option
(** Field lookup in an [Obj]; [None] on absence or non-objects. *)

val get_string : t -> string option
val get_list : t -> t list option

val get_number : t -> float option
(** [Int] or [Float] payload as a float. *)

(** {1 Codecs}

    One declaration per object type gives both its encoder and its
    decoder: the members are listed once, in emission order, and
    {!Codec.decode} reads them in that same order, so the two directions
    cannot drift apart.

    {[
      let point =
        Codec.(obj [ req "x" int; dft ~omit:true "label" string "" ]
                 (fun [ x; label ] -> { x; label })
                 (fun p -> [ p.x; p.label ]))
    ]}

    Decoders never raise.  A value that is not an object reads as an
    object without members. *)

module Codec : sig
  type json := t

  (** What is wrong with one member; its object's {!style} phrases it. *)
  type problem =
    | Missing  (** a required member is absent *)
    | Expected of string  (** the member holds the wrong kind of value *)
    | Says of string  (** a phrase of its own after the member's name *)
    | Failed of string  (** a complete message, reported unchanged *)

  type style = string -> problem -> string
  (** Phrases a problem of the named member. *)

  val field_style : string -> style
  (** [field_style prefix]: [<prefix>field "m" missing], [<prefix>field
      "m" must be <what>], [<prefix>field "m" <phrase>].  An object
      without a style of its own uses its parent's; the top uses
      [field_style ""]. *)

  (** {2 Values} *)

  type 'a t

  val int : int t
  val bool : bool t
  val string : string t

  val number : float t
  (** Emits a [Float]; reads an [Int] or a [Float]. *)

  val any : json t

  val list : ?not_list:problem -> 'a t -> 'a list t
  (** [not_list] (default [Expected "a list"]) is reported for a non-list
      and for a missing required member; an item's problem as is. *)

  val array : ?not_list:problem -> 'a t -> 'a array t

  val int_array : int array t
  (** [missing or not a list]; [must be a list of integers] for a bad item. *)

  val enum : ?unknown:(string -> problem) -> (string * 'a) list -> 'a t

  val check : ('a -> bool) -> problem -> 'a t -> 'a t
  (** Reject decoded values that fail the predicate. *)

  val fails_as : problem -> 'a t -> 'a t
  (** Report every failure, absence included, as the one problem. *)

  val absent_as : problem -> 'a t -> 'a t

  (** {2 Objects} *)

  type 'a obj

  val value : 'a obj -> 'a t
  (** The object nested under a member; its messages pass unchanged. *)

  type 'a field

  val req : string -> 'a t -> 'a field

  val dft : ?omit:bool -> string -> 'a t -> 'a -> 'a field
  (** Reads as the default when absent; with [omit] (default false) it is
      left out while it holds the default. *)

  val opt : string -> 'a t -> 'a option field
  (** Absent exactly when [None]. *)

  val flat : ?omit:'a -> 'a obj -> 'a field
  (** Another object's members, spliced in; left out while equal to
      [omit]. *)

  type ('f, 'r) fields =
    | [] : ('r, 'r) fields
    | ( :: ) : 'a field * ('f, 'r) fields -> ('a -> 'f, 'r) fields

  type ('f, 'r) values =
    | [] : ('r, 'r) values
    | ( :: ) : 'a * ('f, 'r) values -> ('a -> 'f, 'r) values

  val obj :
    ?style:style -> ('f, 'r) fields -> (('f, 'r) values -> 'r) ->
    ('r -> ('f, 'r) values) -> 'r obj
  (** [obj fields make proj]: decoding reads the members in order and
      hands their values to [make]; encoding writes [proj v]. *)

  val validate : ('a -> ('a, string) result) -> 'a obj -> 'a obj
  (** A check that can fail, run after a successful decode. *)

  type ('tag, 'a) case

  val case :
    'tag -> ('f, 'a) fields -> (('f, 'a) values -> 'a) ->
    ('a -> ('f, 'a) values option) -> ('tag, 'a) case
  (** Like {!obj}; [proj] answers [None] for other cases' values. *)

  val variant :
    ?style:style -> ?unknown:('tag -> problem) -> string -> 'tag t ->
    ('tag, 'a) case list -> 'a obj
  (** [variant key tag cases] writes the discriminator [key] first, then
      the members of the first case whose [proj] answers.  [unknown]
      (default [Expected "a known tag"]) is a tag no case has. *)

  val encode : 'a obj -> 'a -> json
  val decode : 'a obj -> json -> ('a, string) result
end
