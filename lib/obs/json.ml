type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- emission ----------------------------------------------------------- *)

let add_escaped buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_escaped buf s;
  Buffer.contents buf

(* Shortest of %.12g / %.17g that round-trips; integral floats keep a ".0"
   so they parse back as Float. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec emit buf ~pretty ~indent v =
  let pad n = Buffer.add_string buf (String.make (2 * n) ' ') in
  let sep_items items emit_item =
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        if pretty then begin
          Buffer.add_char buf '\n';
          pad (indent + 1)
        end;
        emit_item item)
      items;
    if pretty && items <> [] then begin
      Buffer.add_char buf '\n';
      pad indent
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (float_repr f)
      else Buffer.add_string buf "null"
  | String s -> add_escaped buf s
  | List items ->
      Buffer.add_char buf '[';
      sep_items items (emit buf ~pretty ~indent:(indent + 1));
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      sep_items fields (fun (name, v) ->
          add_escaped buf name;
          Buffer.add_string buf (if pretty then ": " else ":");
          emit buf ~pretty ~indent:(indent + 1) v);
      Buffer.add_char buf '}'

let to_buffer buf v = emit buf ~pretty:false ~indent:0 v

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  emit buf ~pretty ~indent:0 v;
  Buffer.contents buf

let pp ppf v = Format.pp_print_string ppf (to_string ~pretty:true v)

(* --- parsing ------------------------------------------------------------ *)

type limits = { max_depth : int; max_bytes : int }

(* Generous enough for every in-tree document (traces, metrics, WAL
   snapshots), tight enough that hostile input cannot blow the stack: the
   recursive-descent parser burns one stack frame per nesting level. *)
let default_limits = { max_depth = 128; max_bytes = 64 * 1024 * 1024 }

type error = { offset : int; kind : error_kind }

and error_kind =
  | Syntax of string
  | Too_deep of int
  | Too_large of { size : int; limit : int }

let error_to_string e =
  match e.kind with
  | Syntax msg -> Printf.sprintf "invalid JSON at byte %d: %s" e.offset msg
  | Too_deep limit ->
      Printf.sprintf "invalid JSON at byte %d: nesting deeper than %d levels"
        e.offset limit
  | Too_large { size; limit } ->
      Printf.sprintf "JSON document too large: %d bytes (limit %d)" size limit

exception Parse_error of error

let parse ?(limits = default_limits) s =
  let n = String.length s in
  if n > limits.max_bytes then
    Error { offset = 0; kind = Too_large { size = n; limit = limits.max_bytes } }
  else
  let pos = ref 0 in
  let fail msg = raise (Parse_error { offset = !pos; kind = Syntax msg }) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    (* int_of_string_opt: the 4 bytes are attacker-controlled and need not
       be hex digits (and "0x1_2f" style underscores must not sneak by). *)
    let tok = String.sub s !pos 4 in
    if String.exists (fun c -> c = '_') tok then fail "bad \\u escape";
    match int_of_string_opt ("0x" ^ tok) with
    | None -> fail "bad \\u escape"
    | Some v ->
        pos := !pos + 4;
        v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail "truncated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
               let cp = hex4 () in
               let cp =
                 if cp >= 0xD800 && cp <= 0xDBFF then begin
                   (* high surrogate: must pair with \uDC00-\uDFFF *)
                   if
                     !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xDC00 || lo > 0xDFFF then
                       fail "invalid low surrogate";
                     0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
                   end
                   else fail "unpaired high surrogate"
                 end
                 else if cp >= 0xDC00 && cp <= 0xDFFF then
                   fail "unpaired low surrogate"
                 else cp
               in
               Buffer.add_utf_8_uchar buf (Uchar.of_int cp)
           | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | c when Char.code c < 0x20 -> fail "raw control character in string"
      | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    let is_float = String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok in
    if is_float then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail (Printf.sprintf "bad number %S" tok)
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" tok))
  in
  let rec parse_value depth =
    if depth > limits.max_depth then
      raise (Parse_error { offset = !pos; kind = Too_deep limits.max_depth });
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let name = parse_string () in
            skip_ws ();
            expect ':';
            (name, parse_value (depth + 1))
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 1 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error e -> Error e
  | exception Stack_overflow ->
      (* The depth limit makes this unreachable in practice; keep the
         promise that hostile bytes can never raise out of the parser. *)
      Error { offset = !pos; kind = Too_deep limits.max_depth }

let of_string s = Result.map_error error_to_string (parse s)

(* --- accessors ---------------------------------------------------------- *)

let member v name =
  match v with Obj fields -> List.assoc_opt name fields | _ -> None

let get_string = function String s -> Some s | _ -> None
let get_list = function List l -> Some l | _ -> None

let get_number = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

(* --- codecs ------------------------------------------------------------- *)

module Codec = struct
  type json = t

  type problem =
    | Missing
    | Expected of string
    | Says of string
    | Failed of string

  type style = string -> problem -> string

  let field_style prefix name = function
    | Missing -> Printf.sprintf "%sfield %S missing" prefix name
    | Expected what -> Printf.sprintf "%sfield %S must be %s" prefix name what
    | Says phrase -> Printf.sprintf "%sfield %S %s" prefix name phrase
    | Failed msg -> msg

  let report st name = function Failed msg -> msg | p -> st name p

  type members = (string * json) list

  (* [absent] is what a required member reports when it is missing. *)
  type 'a t = {
    enc : 'a -> json;
    dec : style -> json -> ('a, problem) result;
    absent : problem;
  }

  (* [push v tail] puts the members of [v], in order, in front of [tail];
     [read] takes the style it inherits, unless the object has its own. *)
  type 'a obj = {
    push : 'a -> members -> members;
    read : style -> members -> ('a, string) result;
  }

  let scalar enc dec = { enc; dec = (fun _ j -> dec j); absent = Missing }

  let int =
    scalar
      (fun v -> Int v)
      (function Int v -> Ok v | _ -> Error (Expected "an integer"))

  let bool =
    scalar
      (fun b -> Bool b)
      (function Bool b -> Ok b | _ -> Error (Expected "a boolean"))

  let string =
    scalar
      (fun s -> String s)
      (function String s -> Ok s | _ -> Error (Expected "a string"))

  let number =
    scalar
      (fun f -> Float f)
      (function
        | Int i -> Ok (float_of_int i)
        | Float f -> Ok f
        | _ -> Error (Expected "numeric"))

  let any = scalar Fun.id Result.ok

  let list ?(not_list = Expected "a list") c =
    let rec items st acc = function
      | [] -> Ok (List.rev acc)
      | j :: rest -> (
          match c.dec st j with
          | Ok v -> items st (v :: acc) rest
          | Error _ as e -> e)
    in
    let dec st = function List js -> items st [] js | _ -> Error not_list in
    { enc = (fun vs -> List (List.map c.enc vs)); dec; absent = not_list }

  let array ?not_list c =
    let l = list ?not_list c in
    {
      l with
      enc = (fun a -> l.enc (Array.to_list a));
      dec = (fun st j -> Result.map Array.of_list (l.dec st j));
    }

  let fails_as p c =
    let dec st j = Result.map_error (fun _ -> p) (c.dec st j) in
    { c with dec; absent = p }

  let absent_as p c = { c with absent = p }

  let check ok p c =
    let dec st j =
      Result.bind (c.dec st j) (fun v -> if ok v then Ok v else Error p)
    in
    { c with dec }

  let int_array =
    array ~not_list:(Says "missing or not a list")
      (fails_as (Expected "a list of integers") int)

  let enum ?(unknown = fun _ -> Expected "a known name") table =
    let dec st j =
      Result.bind (string.dec st j) (fun s ->
          Option.to_result ~none:(unknown s) (List.assoc_opt s table))
    in
    let enc v = String (fst (List.find (fun (_, v') -> v' = v) table)) in
    { enc; dec; absent = Missing }

  let members = function Obj m -> m | _ -> []

  let value o =
    let dec st j =
      Result.map_error (fun msg -> Failed msg) (o.read st (members j))
    in
    { enc = (fun v -> Obj (o.push v [])); dec; absent = Missing }

  (* --- members --- *)

  type 'a field =
    | Mem of { name : string; codec : 'a t; default : 'a option; omit : bool }
    | Flat of { obj : 'a obj; omit : 'a option }

  let req name codec = Mem { name; codec; default = None; omit = false }

  let dft ?(omit = false) name codec default =
    Mem { name; codec; default = Some default; omit }

  let opt name c =
    let dec st j = Result.map Option.some (c.dec st j) in
    let enc = function Some v -> c.enc v | None -> Null in
    Mem { name; codec = { c with enc; dec }; default = Some None; omit = true }

  let flat ?omit obj = Flat { obj; omit }

  let push_field : type a. a field -> a -> members -> members =
   fun f v tail ->
    match f with
    | Mem { omit = true; default = Some d; _ } when v = d -> tail
    | Mem { name; codec; _ } -> (name, codec.enc v) :: tail
    | Flat { omit = Some d; _ } when v = d -> tail
    | Flat { obj; _ } -> obj.push v tail

  let read_field : type a. a field -> style -> members -> (a, string) result =
   fun f st m ->
    match f with
    | Flat { obj; _ } -> obj.read st m
    | Mem { name; codec; default; _ } -> (
        match (List.assoc_opt name m, default) with
        | Some j, _ -> (
            match codec.dec st j with
            | Ok _ as ok -> ok
            | Error p -> Error (report st name p))
        | None, Some d -> Ok d
        | None, None -> Error (report st name codec.absent))

  type ('f, 'r) fields =
    | [] : ('r, 'r) fields
    | ( :: ) : 'a field * ('f, 'r) fields -> ('a -> 'f, 'r) fields

  type ('f, 'r) values =
    | [] : ('r, 'r) values
    | ( :: ) : 'a * ('f, 'r) values -> ('a -> 'f, 'r) values

  let rec push_fields :
      type f r. (f, r) fields -> (f, r) values -> members -> members =
   fun fields vals tail ->
    match (fields, vals) with
    | [], [] -> tail
    | f :: fs, v :: vs -> push_field f v (push_fields fs vs tail)
    | _ -> invalid_arg "Json.Codec: field and value lists differ in length"

  let rec read_fields :
      type f r.
      (f, r) fields -> style -> members -> ((f, r) values, string) result =
   fun fields st m ->
    match fields with
    | [] -> Ok []
    | f :: fs -> (
        match read_field f st m with
        | Error e -> Error e
        | Ok v -> (
            match read_fields fs st m with
            | Ok vs -> Ok (v :: vs)
            | Error e -> Error e))

  let own style st = Option.value style ~default:st

  let obj ?style fields make proj =
    {
      push = (fun v tail -> push_fields fields (proj v) tail);
      read =
        (fun st m -> Result.map make (read_fields fields (own style st) m));
    }

  let validate finish o =
    { o with read = (fun st m -> Result.bind (o.read st m) finish) }

  type ('tag, 'a) case =
    | Case : {
        tag : 'tag;
        fields : ('f, 'a) fields;
        make : ('f, 'a) values -> 'a;
        proj : 'a -> ('f, 'a) values option;
      }
        -> ('tag, 'a) case

  let case tag fields make proj = Case { tag; fields; make; proj }

  let variant ?style ?(unknown = fun _ -> Expected "a known tag") key tag
      cases =
    let rec push v tail : (_, _) case list -> members = function
      | [] -> invalid_arg ("Json.Codec.variant: no case for this " ^ key)
      | Case c :: rest -> (
          match c.proj v with
          | Some vals -> (key, tag.enc c.tag) :: push_fields c.fields vals tail
          | None -> push v tail rest)
    in
    let key_field = req key tag in
    let rec read_case st m t : (_, _) case list -> _ = function
      | [] -> Error (report st key (unknown t))
      | Case c :: _ when c.tag = t ->
          Result.map c.make (read_fields c.fields st m)
      | _ :: rest -> read_case st m t rest
    in
    let read st m =
      let st = own style st in
      match read_field key_field st m with
      | Ok t -> read_case st m t cases
      | Error e -> Error e
    in
    { push = (fun v tail -> push v tail cases); read }

  let top_style = field_style ""
  let encode o v = Obj (o.push v [])
  let decode o j = o.read top_style (members j)
end
