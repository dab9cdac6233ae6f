type 'a entry = { prio : int; value : 'a }

type 'a t = {
  mutable data : 'a entry array;
  mutable size : int;
}

let create ?(capacity = 16) () =
  ignore capacity;
  { data = [||]; size = 0 }

let is_empty h = h.size = 0
let size h = h.size

let grow h entry =
  let cap = Array.length h.data in
  if h.size >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let ndata = Array.make ncap entry in
    Array.blit h.data 0 ndata 0 h.size;
    h.data <- ndata
  end

let rec sift_up data i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if data.(i).prio < data.(parent).prio then begin
      let tmp = data.(i) in
      data.(i) <- data.(parent);
      data.(parent) <- tmp;
      sift_up data parent
    end
  end

let rec sift_down data size i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < size && data.(l).prio < data.(!smallest).prio then smallest := l;
  if r < size && data.(r).prio < data.(!smallest).prio then smallest := r;
  if !smallest <> i then begin
    let tmp = data.(i) in
    data.(i) <- data.(!smallest);
    data.(!smallest) <- tmp;
    sift_down data size !smallest
  end

let add h ~prio value =
  let entry = { prio; value } in
  grow h entry;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h.data (h.size - 1)

let min_prio h = if h.size = 0 then None else Some h.data.(0).prio
let top_prio h = if h.size = 0 then max_int else h.data.(0).prio

let pop h =
  if h.size = 0 then None
  else begin
    let top = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      sift_down h.data h.size 0
    end;
    Some (top.prio, top.value)
  end

let remove_first h pred =
  let rec find i =
    if i >= h.size then None
    else if pred h.data.(i).value then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some i ->
      let entry = h.data.(i) in
      h.size <- h.size - 1;
      if i < h.size then begin
        h.data.(i) <- h.data.(h.size);
        (* The moved entry may violate the heap property in either
           direction; one sift each way restores it (at most one moves). *)
        sift_down h.data h.size i;
        sift_up h.data i
      end;
      Some (entry.prio, entry.value)

let pop_le h bound =
  match min_prio h with
  | Some p when p <= bound -> pop h
  | Some _ | None -> None

let clear h = h.size <- 0

let to_list h =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) ((h.data.(i).prio, h.data.(i).value) :: acc)
  in
  go (h.size - 1) []
