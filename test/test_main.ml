(* BFT_DOMAINS sizes the default verification pool for the whole suite
   (CI runs it at 1 and at 4 and diffs the pinned digests — parallelism
   must be wall-clock only). Env access is confined to entry points like
   this one; lib/ is lint-banned from getenv. *)
let () =
  (match (Sys.getenv_opt [@lint.allow "determinism-getenv"]) "BFT_DOMAINS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> Bft_crypto.Vpool.set_default_domains n
      | _ -> ())
  | None -> ());
  Alcotest.run "bft"
    (Test_crypto.suites @ Test_vpool.suites @ Test_sim.suites @ Test_wire.suites @ Test_partition_tree.suites
   @ Test_log.suites @ Test_pipeline.suites @ Test_nv_decision.suites @ Test_codec.suites @ Test_baseline.suites @ Test_util.suites @ Test_checkpoint_store.suites @ Test_config.suites
   @ Test_services.suites @ Test_fs.suites @ Test_paged.suites @ Test_network.suites @ Test_perf.suites
   @ Test_integration.suites @ Test_fuzz.suites @ Test_cohort.suites @ Test_attack.suites @ Test_explore.suites @ Test_hotpath.suites @ Test_obs.suites
   @ Test_lint.suites)
