let num_buckets = 40

type t = {
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable max : float;
}

let create () = { buckets = Array.make num_buckets 0; count = 0; sum = 0.0; max = 0.0 }

(* bucket 0: v < 1us; bucket i: 2^(i-1) <= v < 2^i; last bucket open-ended *)
let bucket_index v =
  if v < 1.0 then 0
  else begin
    let i = ref 0 and x = ref 1.0 in
    while !i < num_buckets - 1 && v >= !x do
      incr i;
      x := !x *. 2.0
    done;
    !i
  end

let bucket_upper_us i =
  if i >= num_buckets - 1 then infinity else 2.0 ** float_of_int i

let add t v =
  let v = if v < 0.0 then 0.0 else v in
  t.buckets.(bucket_index v) <- t.buckets.(bucket_index v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.max then t.max <- v

let count t = t.count
let sum_us t = t.sum
let mean_us t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let max_us t = t.max

let percentile_us t p =
  if t.count = 0 then 0.0
  else begin
    let target = p *. float_of_int t.count in
    let acc = ref 0 and found = ref (num_buckets - 1) in
    (try
       for i = 0 to num_buckets - 1 do
         acc := !acc + t.buckets.(i);
         if float_of_int !acc >= target then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    let u = bucket_upper_us !found in
    if u = infinity || u > t.max then t.max else u
  end

let merge_into dst src =
  Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
  dst.count <- dst.count + src.count;
  dst.sum <- dst.sum +. src.sum;
  if src.max > dst.max then dst.max <- src.max
