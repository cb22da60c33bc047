(* C stubs are opaque to the effect pass: unannotated, a stub widens to
   top, so the protocol-reachable root calling it is flagged. An audited
   stub summarises as pure, but only with a non-empty reason; an empty
   one is itself an error and leaves the stub at top. *)
external opaque_mix : int -> int = "fixture_opaque_mix"

external audited_mix : int -> int = "fixture_audited_mix"
[@@lint.pure "reads its argument only"]

external unexplained_mix : int -> int = "fixture_unexplained_mix" [@@lint.pure ""]

let handle_opaque x = opaque_mix x
let handle_audited x = audited_mix x
let handle_unexplained x = unexplained_mix x
