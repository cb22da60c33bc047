type digest = string

type entry = {
  seq : int;
  mutable pp : Message.pre_prepare option;
  mutable pp_digest : digest option;
  mutable pp_view : int;
  mutable self_preprepared : bool;
  prepares : (int * digest) option array;
  commits : (int * digest) option array;
  mutable executed : bool;
  mutable exec_tentative : bool;
}

(* A ring of [log_size] slots: sequence number [n] lives in slot
   [n mod log_size]. The window (h, h+L] holds L consecutive numbers, so no
   two live entries share a slot; lookups still check [e.seq], so a slot
   never answers for a different sequence number. The ring is allocated
   with the first entry: a cluster that is built and dropped without
   ordering anything (fuzz preparation, set-up) never pays for it. Until
   then [entry] answers [None] and every loop below runs zero times. *)
type t = { cfg : Config.t; mutable h : int; mutable slots : entry option array }

let create cfg = { cfg; h = 0; slots = [||] }
let low_mark t = t.h
let config t = t.cfg
let in_window t n = Config.in_window t.cfg ~h:t.h n

(* in-window sequence numbers are > h >= 0, so the remainder is a slot *)
let slot t n = n mod Array.length t.slots

let entry t n =
  if in_window t n && Array.length t.slots > 0 then
    match t.slots.(slot t n) with Some e as r when e.seq = n -> r | _ -> None
  else None

let find t n =
  match entry t n with
  | Some e -> e
  | None ->
      if not (in_window t n) then
        invalid_arg (Printf.sprintf "Log.find: seq %d outside window (h=%d)" n t.h);
      if Array.length t.slots = 0 then t.slots <- Array.make t.cfg.Config.log_size None;
      let e =
        {
          seq = n;
          pp = None;
          pp_digest = None;
          pp_view = -1;
          self_preprepared = false;
          prepares = Array.make t.cfg.Config.n None;
          commits = Array.make t.cfg.Config.n None;
          executed = false;
          exec_tentative = false;
        }
      in
      t.slots.(slot t n) <- Some e;
      e

let accept_pre_prepare t ~view pp d =
  let e = find t pp.Message.pp_seq in
  match e.pp_digest with
  | Some d' when e.pp_view = view && not (String.equal d' d) -> false
  | _ ->
      e.pp <- Some pp;
      e.pp_digest <- Some d;
      e.pp_view <- view;
      true

let is_replica t i = i >= 0 && i < t.cfg.Config.n

(* Prepares and commits may arrive before the pre-prepare is accepted
   (out-of-order delivery, deferred authentication): create the entry. *)
let add_prepare t (p : Message.prepare) =
  if in_window t p.pr_seq && is_replica t p.pr_replica then
    (find t p.pr_seq).prepares.(p.pr_replica) <- Some (p.pr_view, p.pr_digest)

let add_commit t (c : Message.commit) =
  if in_window t c.cm_seq && is_replica t c.cm_replica then
    (find t c.cm_seq).commits.(c.cm_replica) <- Some (c.cm_view, c.cm_digest)

let prepared t ~view ~seq =
  match entry t seq with
  | None -> false
  | Some e -> (
      match e.pp_digest with
      | Some d when e.pp_view = view ->
          let primary = Config.primary t.cfg ~view in
          let matching = ref 0 in
          for replica = 0 to Array.length e.prepares - 1 do
            match e.prepares.(replica) with
            | Some (v, d') when replica <> primary && v = view && String.equal d' d ->
                incr matching
            | _ -> ()
          done;
          !matching >= 2 * t.cfg.Config.f
      | _ -> false)

let commit_count t ~seq d =
  match entry t seq with
  | None -> 0
  | Some e ->
      let count = ref 0 in
      for replica = 0 to Array.length e.commits - 1 do
        match e.commits.(replica) with
        | Some (_, d') when String.equal d' d -> incr count
        | _ -> ()
      done;
      !count

let committed t ~view ~seq =
  prepared t ~view ~seq
  &&
  match entry t seq with
  | None -> false
  | Some e -> (
      match e.pp_digest with
      | None -> false
      | Some d -> commit_count t ~seq d >= Config.quorum t.cfg)

(* Entries live only inside the window, so the ones a truncation drops are
   exactly the old window's numbers at or below the new mark. *)
let truncate t n =
  if n > t.h then begin
    for seq = t.h + 1 to min n (t.h + Array.length t.slots) do
      t.slots.(slot t seq) <- None
    done;
    t.h <- n
  end

let iter_window t f =
  for seq = t.h + 1 to t.h + Array.length t.slots do
    match t.slots.(slot t seq) with Some e when e.seq = seq -> f e | _ -> ()
  done

let clear_entries t = Array.fill t.slots 0 (Array.length t.slots) None

type claim = Unclaimed | Claimed_prepared | Claimed_committed

let claims ~lo ~size ~prepared ~committed =
  let marks = Array.make size Unclaimed in
  let covers n = n > lo && n <= lo + size in
  let mark c n = if covers n then marks.(n - lo - 1) <- c in
  List.iter (mark Claimed_prepared) prepared;
  List.iter (mark Claimed_committed) committed;
  fun n -> if covers n then marks.(n - lo - 1) else Unclaimed
