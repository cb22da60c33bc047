let tag_size = 8

type mac = { tag : string; epoch : int }
type authenticator = (int * mac) list

let compute_mac keychain ~peer msg =
  match Keychain.out_key_pre keychain ~peer with
  | None -> None
  | Some (key, pre) ->
      Some { tag = Hmac.mac_truncated_precomputed pre tag_size msg; epoch = key.epoch }

let verify_mac keychain ~peer mac msg =
  match Keychain.in_key_pre keychain ~peer with
  | None -> false
  | Some (key, pre) ->
      key.epoch = mac.epoch && Hmac.verify_precomputed pre ~tag:mac.tag msg

let compute_authenticator keychain ~receivers msg =
  List.filter_map
    (fun peer ->
      if peer = Keychain.my_id keychain then None
      else
        match compute_mac keychain ~peer msg with
        | None -> None
        | Some mac -> Some (peer, mac))
    receivers

let verify_authenticator keychain ~peer auth msg =
  match List.assoc_opt (Keychain.my_id keychain) auth with
  | None -> false
  | Some mac -> verify_mac keychain ~peer mac msg

let corrupt_entry auth receiver =
  List.map
    (fun (peer, mac) ->
      if peer = receiver then
        (peer, { mac with tag = String.map (fun c -> Char.chr (Char.code c lxor 0xff)) mac.tag })
      else (peer, mac))
    auth

let size auth = 8 + (tag_size * List.length auth)
