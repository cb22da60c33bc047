(* A sealed module's signature stands in for an .mli. [dump] is used by
   nothing and [size] only inside [Store], so both are dead exports;
   [get] has a caller outside and [debug] carries an audited allow. *)
module Store : sig
  val get : int -> int
  val size : unit -> int
  val dump : unit -> string
  val debug : unit -> string [@@lint.allow "dead-export"]
end = struct
  let size () = 4
  let get i = i mod size ()
  let dump () = "store"
  let debug () = "debug"
end

let lookup i = Store.get i
