(* Every metric name the benchmark prints, and where it goes. BENCHMARK.json
   lists the gated end-to-end metrics and the per-layer metrics; the
   self-test checks that it agrees with these tables. *)

type better = Higher | Lower

(* Gated end-to-end metrics: (name, unit, better, bound). Every workload
   prints every one of them, so they are the ones that mean the same thing
   on all three. *)
let end_to_end =
  [
    ("setup_s", "s", Lower, 0.25);
    ("wall_ops_per_s", "ops/s", Higher, 0.25);
    ("vops_per_vs", "ops/vs", Higher, 0.2);
    ("vlat_write_p50_us", "us", Lower, 0.15);
    ("vlat_write_p99_us", "us", Lower, 0.2);
    ("heap_peak_mb", "MB", Lower, 0.2);
  ]

(* End-to-end metrics that exist on some workloads only. They are printed
   with their sample counts on the detail line but cannot be gated: a gated
   metric must be printed by every workload. *)
let workload_only =
  [
    ("fuzz_seeds_per_s", [ "fuzz_f1" ]);
    ("vlat_read_p50_us", [ "kv_rw_f3" ]);
    ("vlat_read_p99_us", [ "kv_rw_f3" ]);
    ("knee_rate_per_vs", [ "open_1m_f1" ]);
    ("capacity_ops_per_vs", [ "open_1m_f1" ]);
    ("failover_unavail_ms", [ "open_1m_f1" ]);
    ("ops_failed_frac", [ "kv_rw_f3"; "open_1m_f1"; "fuzz_f1" ]);
  ]

(* Per-layer metrics (name, unit), printed by the traced run ([--trace 1]) of every
   workload. *)
let per_layer =
  [
    ("crypto.bytes_maced_per_op", "B", Lower);
    ("crypto.mac_ns_per_op", "ns", Lower);
    ("crypto.digest_ns_per_op", "ns", Lower);
    ("crypto.model_us_per_op", "us", Lower);
    ("crypto.wall_frac", "frac", Lower);
    ("wire.encode_ns_per_op", "ns", Lower);
    ("wire.bytes_per_op", "B", Lower);
    ("wire.model_us_per_op", "us", Lower);
    ("wire.wall_frac", "frac", Lower);
    ("net.msgs_per_op", "count", Lower);
    ("net.deliveries_per_op", "count", Lower);
    ("net.bytes_per_op", "B", Lower);
    ("net.dropped_frac", "frac", Lower);
    ("net.backlog_hwm", "count", Lower);
    ("net.model_us_per_op", "us", Lower);
    ("engine.events_per_op", "count", Lower);
    ("engine.max_heap", "count", Lower);
    ("engine.step_ns_per_event", "ns", Lower);
    ("replica.ops_per_batch", "count", Higher);
    ("replica.order_wait_us", "us", Lower);
    ("replica.agree_us", "us", Lower);
    ("replica.view_changes", "count", Lower);
    ("replica.state_transfers", "count", Lower);
    ("replica.checkpoints", "count", Lower);
    ("client.retransmits_per_op", "count", Lower);
    ("service.exec_ns_per_op", "ns", Lower);
    ("service.ckpt_ns_per_ckpt", "ns", Lower);
    ("service.dirty_pages_per_ckpt", "count", Lower);
    ("service.model_us_per_op", "us", Lower);
    ("service.wall_frac", "frac", Lower);
    ("fuzz.prepare_ms_per_seed", "ms", Lower);
    ("fuzz.run_ms_per_seed", "ms", Lower);
    ("fuzz.oracle_ms_per_seed", "ms", Lower);
    ("gc.minor_words_per_op", "words", Lower);
    ("gc.promoted_words_per_op", "words", Lower);
    ("gc.major_collections", "count", Lower);
    ("obs.overhead_frac", "frac", Lower);
    ("unattributed.ns_per_op", "ns", Lower);
    ("unattributed.wall_frac", "frac", Lower);
    ("model.vlat_write_us", "us", Lower);
    ("model.vlat_read_us", "us", Lower);
    ("model.capacity_ops_per_vs", "ops/vs", Higher);
    ("unreplicated.vlat_p50_us", "us", Lower);
  ]

let workloads =
  [
    ("kv_rw_f3", "f=3 closed loop, 8 clients, 1 KB puts and read-only gets on the paged KV store: crypto, wire and service heavy");
    ("open_1m_f1", "f=1 open loop, 10^6 derived-key clients at fixed Poisson rates plus a primary crash: ordering queue, batching and engine");
    ("fuzz_f1", "f=1 fault fuzzing over 400 consecutive seeds with every oracle: view changes, retransmission, state transfer");
  ]

let valid_name s =
  String.length s > 0
  && String.length s <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'
         || c = '.' || c = '-')
       s
