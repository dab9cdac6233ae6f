type t = { mutable data : int array; mutable size : int }

let create () = { data = Array.make 16 0; size = 0 }
let is_empty h = h.size = 0

let top h =
  if h.size = 0 then invalid_arg "Int_heap.top: empty heap";
  h.data.(0)

let push h x =
  if h.size = Array.length h.data then begin
    let bigger = Array.make (2 * h.size) 0 in
    Array.blit h.data 0 bigger 0 h.size;
    h.data <- bigger
  end;
  let d = h.data and i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && d.((!i - 1) / 2) > x do
    d.(!i) <- d.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  d.(!i) <- x

let pop h =
  let min = top h in
  let d = h.data and n = h.size - 1 in
  let last = d.(n) in
  h.size <- n;
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < n && d.(l + 1) < d.(l) then l + 1 else l in
    if c < n && d.(c) < last then begin
      d.(!i) <- d.(c);
      i := c
    end
    else sifting := false
  done;
  d.(!i) <- last;
  min
