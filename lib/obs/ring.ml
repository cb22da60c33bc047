type 'a t = {
  slots : 'a option array;
  mutable next : int; (* slot the next push writes *)
  mutable total : int;
}

let create cap =
  if cap < 1 then invalid_arg "Ring.create: capacity must be >= 1";
  { slots = Array.make cap None; next = 0; total = 0 }

let length t = min t.total (Array.length t.slots)
let total t = t.total

let push t x =
  t.slots.(t.next) <- Some x;
  t.next <- (t.next + 1) mod Array.length t.slots;
  t.total <- t.total + 1

let to_list t =
  let cap = Array.length t.slots in
  let n = length t in
  (* oldest element sits at [next] once the ring has wrapped, at 0 before *)
  let start = if t.total > cap then t.next else 0 in
  List.init n (fun i ->
      match t.slots.((start + i) mod cap) with
      | Some x -> x
      | None -> assert false)

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) None;
  t.next <- 0;
  t.total <- 0
