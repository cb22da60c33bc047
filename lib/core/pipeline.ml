type slot = {
  s_digest : string;
  s_client : int;
  s_ts : int64;
  mutable s_queued : bool;
  mutable s_assigned : bool;
  mutable s_waiting : bool;
  mutable s_arrival : Bft_sim.Engine.time; (* meaningful while [s_waiting] *)
  mutable s_body : bool; (* the request body is stored at the replica *)
}

(* one client's digests in the pipeline, and how many of them have a body *)
type client = { mutable c_slots : slot list; mutable c_live : int }

type t = {
  slots : (string, slot) Hashtbl.t;
  clients : (int, client) Hashtbl.t;
  queue : slot Queue.t; (* the queued slots, oldest first *)
  mutable n_waiting : int;
}

let create () =
  { slots = Hashtbl.create 16; clients = Hashtbl.create 16; queue = Queue.create (); n_waiting = 0 }

let mem t d = Hashtbl.mem t.slots d
let waiting_count t = t.n_waiting
let queued_count t = Queue.length t.queue

let inflight t client =
  match Hashtbl.find_opt t.clients client with Some c -> c.c_live | None -> 0

let client_of t s =
  match Hashtbl.find_opt t.clients s.s_client with
  | Some c -> c
  | None ->
      let c = { c_slots = []; c_live = 0 } in
      Hashtbl.replace t.clients s.s_client c;
      c

let set_body t s b =
  if s.s_body <> b then begin
    s.s_body <- b;
    let c = client_of t s in
    c.c_live <- (if b then c.c_live + 1 else c.c_live - 1)
  end

(* the slot of [d], created (and indexed under its client) if absent;
   callers hold the body, so the slot counts *)
let slot_with_body t d ~client ~ts =
  match Hashtbl.find_opt t.slots d with
  | Some s ->
      set_body t s true;
      s
  | None ->
      let s =
        {
          s_digest = d;
          s_client = client;
          s_ts = ts;
          s_queued = false;
          s_assigned = false;
          s_waiting = false;
          s_arrival = 0L;
          s_body = true;
        }
      in
      Hashtbl.replace t.slots d s;
      let c = client_of t s in
      c.c_slots <- s :: c.c_slots;
      c.c_live <- c.c_live + 1;
      s

let empty s = not (s.s_queued || s.s_assigned || s.s_waiting)

(* drop [s] from the client index once it holds no flag; the caller
   removes it from [t.slots] *)
let unindex t s =
  let c = client_of t s in
  c.c_slots <- List.filter (fun s' -> s' != s) c.c_slots;
  if s.s_body then c.c_live <- c.c_live - 1;
  match c.c_slots with [] -> Hashtbl.remove t.clients s.s_client | _ :: _ -> ()

let drop_if_empty t s =
  if empty s then begin
    Hashtbl.remove t.slots s.s_digest;
    unindex t s
  end

let enqueue t d ~client ~ts =
  let s = slot_with_body t d ~client ~ts in
  if s.s_queued || s.s_assigned then false
  else begin
    s.s_queued <- true;
    Queue.push s t.queue;
    true
  end

let take t k =
  let rec go k acc =
    if k <= 0 || Queue.is_empty t.queue then List.rev acc
    else begin
      let s = Queue.pop t.queue in
      s.s_queued <- false;
      s.s_assigned <- true;
      go (k - 1) (s.s_digest :: acc)
    end
  in
  go k []

let unassign t d =
  match Hashtbl.find_opt t.slots d with
  | Some s when s.s_assigned ->
      s.s_assigned <- false;
      drop_if_empty t s
  | _ -> ()

let note_waiting t d ~client ~ts ~now =
  let s = slot_with_body t d ~client ~ts in
  if s.s_waiting then false
  else begin
    s.s_waiting <- true;
    s.s_arrival <- now;
    t.n_waiting <- t.n_waiting + 1;
    true
  end

let unwait t s =
  s.s_waiting <- false;
  t.n_waiting <- t.n_waiting - 1;
  drop_if_empty t s

let clear_waiting t d =
  match Hashtbl.find_opt t.slots d with
  | Some s when s.s_waiting ->
      unwait t s;
      Some s.s_arrival
  | _ -> None

let purge_waiting t ~client ~ts =
  match Hashtbl.find_opt t.clients client with
  | None -> false
  | Some c -> (
      match
        List.filter
          (fun s -> s.s_waiting && s.s_body && Int64.compare s.s_ts ts <= 0)
          c.c_slots
      with
      | [] -> false
      | dead ->
          List.iter (unwait t) dead;
          true)

let body_stored t d =
  match Hashtbl.find_opt t.slots d with Some s -> set_body t s true | None -> ()

(* clear flags table-wide with [f]; slots left empty leave the table *)
let sweep t f =
  Hashtbl.filter_map_inplace
    (fun _ s ->
      f s;
      if empty s then begin
        unindex t s;
        None
      end
      else Some s)
    t.slots

let reset_assigned t = sweep t (fun s -> s.s_assigned <- false)

let crash t =
  Queue.clear t.queue;
  sweep t (fun s ->
      s.s_queued <- false;
      s.s_waiting <- false;
      set_body t s false);
  t.n_waiting <- 0

let sorted_digests t flag =
  List.sort String.compare
    (Hashtbl.fold (fun d s acc -> if flag s then d :: acc else acc) t.slots [])

let queued_digests t = List.of_seq (Seq.map (fun s -> s.s_digest) (Queue.to_seq t.queue))
let assigned_digests t = sorted_digests t (fun s -> s.s_assigned)
let waiting_digests t = sorted_digests t (fun s -> s.s_waiting)
