(* Tests for the dIPC core: Table 2 object semantics, the GVAS allocator,
   proxy generation and the measured call-cost bands of Figure 5. *)

module Perm = Dipc_hw.Perm
module Machine = Dipc_hw.Machine
module Isa = Dipc_hw.Isa
module Sys_ = Dipc_core.System
module Types = Dipc_core.Types
module Gvas = Dipc_core.Gvas
module Entry = Dipc_core.Entry
module Proxy = Dipc_core.Proxy
module Annot = Dipc_core.Annot
module Resolver = Dipc_core.Resolver
module Call = Dipc_core.Call
module Scenario = Dipc_core.Scenario
module Isolation = Dipc_core.Isolation

(* --- types --- *)

let test_signature_validation () =
  Alcotest.(check bool) "too many args rejected" true
    (try
       ignore (Types.signature ~args:9 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unaligned stack rejected" true
    (try
       ignore (Types.signature ~stack_bytes:12 ());
       false
     with Invalid_argument _ -> true)

let test_props_union () =
  let a = { Types.props_none with Types.reg_integrity = true } in
  let b = { Types.props_none with Types.dcs_confidentiality = true } in
  let u = Types.props_union a b in
  Alcotest.(check bool) "union has both" true
    (u.Types.reg_integrity && u.Types.dcs_confidentiality);
  Alcotest.(check bool) "union lacks others" false u.Types.stack_confidentiality

(* --- gvas --- *)

let test_gvas_alloc_disjoint () =
  let g = Gvas.create () in
  let a = Gvas.alloc g ~owner:1 ~bytes:4096 in
  let b = Gvas.alloc g ~owner:1 ~bytes:4096 in
  let c = Gvas.alloc g ~owner:2 ~bytes:4096 in
  Alcotest.(check bool) "all distinct" true (a <> b && b <> c && a <> c);
  Alcotest.(check bool) "page aligned" true (a land 4095 = 0 && c land 4095 = 0)

let test_gvas_owner_lookup () =
  let g = Gvas.create () in
  let a = Gvas.alloc g ~owner:7 ~bytes:4096 in
  Alcotest.(check (option int)) "owner found" (Some 7) (Gvas.owner_of g a);
  Alcotest.(check (option int)) "unknown addr" None (Gvas.owner_of g 0x123)

let test_gvas_block_reuse () =
  let g = Gvas.create () in
  ignore (Gvas.alloc g ~owner:1 ~bytes:4096);
  ignore (Gvas.alloc g ~owner:1 ~bytes:4096);
  Alcotest.(check int) "one 1GB block serves both" 1 (Gvas.blocks_allocated g);
  ignore (Gvas.alloc g ~owner:2 ~bytes:4096);
  Alcotest.(check int) "per-process blocks" 2 (Gvas.blocks_allocated g)

let prop_gvas_no_overlap =
  QCheck.Test.make ~name:"gvas allocations never overlap" ~count:50
    QCheck.(list_of_size Gen.(2 -- 20) (int_range 1 100_000))
    (fun sizes ->
      let g = Gvas.create () in
      let ranges =
        List.map
          (fun bytes ->
            let a = Gvas.alloc g ~owner:1 ~bytes in
            (a, a + bytes))
          sizes
      in
      List.for_all
        (fun (a1, e1) ->
          List.for_all
            (fun (a2, e2) -> (a1, e1) = (a2, e2) || e1 <= a2 || e2 <= a1)
            ranges)
        ranges)

(* --- domain handles (Table 2) --- *)

let test_dom_copy_downgrade_only () =
  let t = Sys_.create () in
  let p = Sys_.create_process t ~name:"p" in
  let d = Sys_.dom_create t p in
  let read_handle = Sys_.dom_copy d Perm.Read in
  Alcotest.(check bool) "downgrade ok" true
    (Perm.equal read_handle.Sys_.dom_perm Perm.Read);
  Alcotest.(check bool) "amplify denied" true
    (try
       ignore (Sys_.dom_copy read_handle Perm.Owner);
       false
     with Sys_.Denied _ -> true)

let test_dom_mmap_requires_owner () =
  let t = Sys_.create () in
  let p = Sys_.create_process t ~name:"p" in
  let d = Sys_.dom_create t p in
  let ro = Sys_.dom_copy d Perm.Read in
  Alcotest.(check bool) "mmap with read handle denied" true
    (try
       ignore (Sys_.dom_mmap t ro ~bytes:4096 ());
       false
     with Sys_.Denied _ -> true);
  let addr = Sys_.dom_mmap t d ~bytes:8192 () in
  Alcotest.(check bool) "mmap works for owner" true (addr > 0)

let test_dom_remap () =
  let t = Sys_.create () in
  let p = Sys_.create_process t ~name:"p" in
  let d1 = Sys_.dom_create t p and d2 = Sys_.dom_create t p in
  let addr = Sys_.dom_mmap t d1 ~bytes:4096 () in
  Sys_.dom_remap t ~dst:d2 ~src:d1 ~addr ~bytes:4096;
  match Dipc_hw.Page_table.find t.Sys_.machine.Sys_.Machine.page_table addr with
  | Some page ->
      Alcotest.(check int) "page moved to d2" d2.Sys_.dom_tag
        page.Dipc_hw.Page_table.tag
  | None -> Alcotest.fail "page unmapped"

let test_grant_lifecycle () =
  let t = Sys_.create () in
  let p = Sys_.create_process t ~name:"p" in
  let d1 = Sys_.dom_create t p and d2 = Sys_.dom_create t p in
  let g = Sys_.grant_create t ~src:d1 ~dst:(Sys_.dom_copy d2 Perm.Read) in
  let apl = t.Sys_.machine.Sys_.Machine.apl in
  Alcotest.(check bool) "granted" true
    (Perm.equal (Dipc_hw.Apl.permission apl ~src:d1.Sys_.dom_tag ~dst:d2.Sys_.dom_tag) Perm.Read);
  Sys_.grant_revoke t g;
  Alcotest.(check bool) "revoked" true
    (Perm.equal (Dipc_hw.Apl.permission apl ~src:d1.Sys_.dom_tag ~dst:d2.Sys_.dom_tag) Perm.Nil)

let test_grant_requires_src_owner () =
  let t = Sys_.create () in
  let p = Sys_.create_process t ~name:"p" in
  let d1 = Sys_.dom_create t p and d2 = Sys_.dom_create t p in
  Alcotest.(check bool) "non-owner src denied" true
    (try
       ignore (Sys_.grant_create t ~src:(Sys_.dom_copy d1 Perm.Read) ~dst:d2);
       false
     with Sys_.Denied _ -> true)

(* --- scenario: correctness of cross-domain calls --- *)

let test_call_correct_result () =
  let s = Scenario.make () in
  (match Scenario.call s ~args:[ 20; 22 ] with
  | Ok v -> Alcotest.(check int) "20+22" 42 v
  | Error f -> Alcotest.failf "fault: %s" (Dipc_hw.Fault.to_string f));
  (* Results stay correct across repeated calls (warm path). *)
  for i = 1 to 5 do
    match Scenario.call s ~args:[ i; i ] with
    | Ok v -> Alcotest.(check int) "i+i" (2 * i) v
    | Error f -> Alcotest.failf "fault: %s" (Dipc_hw.Fault.to_string f)
  done

let test_call_all_policies_correct () =
  List.iter
    (fun (cp, kp) ->
      let s = Scenario.make ~caller_props:cp ~callee_props:kp () in
      match Scenario.call s ~args:[ 1; 2 ] with
      | Ok v -> Alcotest.(check int) "1+2" 3 v
      | Error f -> Alcotest.failf "fault: %s" (Dipc_hw.Fault.to_string f))
    [
      (Types.props_low, Types.props_low);
      (Types.props_high, Types.props_low);
      (Types.props_low, Types.props_high);
      (Types.props_high, Types.props_high);
    ]

let test_call_same_process_domains () =
  let s = Scenario.make ~same_process:true () in
  match Scenario.call s ~args:[ 5; 6 ] with
  | Ok v -> Alcotest.(check int) "5+6" 11 v
  | Error f -> Alcotest.failf "fault: %s" (Dipc_hw.Fault.to_string f)

let test_signature_mismatch_denied () =
  (* P4: entry_request must reject a signature disagreement. *)
  let t = Sys_.create () in
  let resolver = Resolver.create () in
  let callee = Sys_.create_process t ~name:"callee" in
  let img = Annot.image t callee in
  ignore (Annot.declare_function t img ~name:"fn" [ Isa.Ret ]);
  let sig_server = Types.signature ~args:2 ~rets:1 () in
  let handle =
    Annot.declare_entries t img ~name:"e" [ ("fn", sig_server, Types.props_none) ]
  in
  Resolver.publish resolver ~path:"/x" handle;
  let caller = Sys_.create_process t ~name:"caller" in
  let cimg = Annot.image t caller in
  let sym =
    Annot.import cimg ~path:"/x"
      ~sig_:(Types.signature ~args:3 ~rets:1 ())
      ~props:Types.props_none ()
  in
  Alcotest.(check bool) "mismatch denied" true
    (try
       ignore (Annot.resolve t resolver sym);
       false
     with Sys_.Denied _ -> true)

let test_resolver_permissions () =
  let t = Sys_.create () in
  let resolver = Resolver.create () in
  let callee = Sys_.create_process t ~name:"callee" in
  let img = Annot.image t callee in
  ignore (Annot.declare_function t img ~name:"fn" [ Isa.Ret ]);
  let handle =
    Annot.declare_entries t img ~name:"e"
      [ ("fn", Types.signature (), Types.props_none) ]
  in
  let friend = Sys_.create_process t ~name:"friend" in
  let stranger = Sys_.create_process t ~name:"stranger" in
  Resolver.publish resolver ~path:"/private"
    ~mode:(Resolver.Owner_only friend.Sys_.pid) handle;
  Alcotest.(check bool) "friend allowed" true
    (Result.is_ok (Resolver.lookup resolver ~path:"/private" ~caller:friend));
  Alcotest.(check bool) "stranger denied" true
    (Result.is_error (Resolver.lookup resolver ~path:"/private" ~caller:stranger));
  Alcotest.(check bool) "missing path" true
    (Result.is_error (Resolver.lookup resolver ~path:"/nope" ~caller:friend))

let test_entry_register_requires_domain_residency () =
  let t = Sys_.create () in
  let p = Sys_.create_process t ~name:"p" in
  let d = Sys_.dom_create t p in
  ignore (Sys_.dom_mmap t d ~bytes:4096 ());
  (* Register an address outside the domain. *)
  Alcotest.(check bool) "foreign address rejected" true
    (try
       ignore
         (Entry.entry_register t ~dom:d
            [| { Entry.e_addr = 0x1234000; e_sig = Types.signature (); e_policy = Types.props_none } |]);
       false
     with Sys_.Denied _ -> true)

(* --- nested cross-process calls --- *)

let test_nested_calls () =
  (* web -> php -> db, three processes: php's entry calls into db through
     its own imported stub. *)
  let t = Sys_.create () in
  let resolver = Resolver.create () in
  let sig1 = Types.signature ~args:2 ~rets:1 () in
  (* db: add *)
  let db = Sys_.create_process t ~name:"db" in
  let db_img = Annot.image t db in
  ignore (Annot.declare_function t db_img ~name:"add" [ Isa.Add (0, 0, 1); Isa.Ret ]);
  let db_handle =
    Annot.declare_entries t db_img ~name:"db" [ ("add", sig1, Types.props_none) ]
  in
  Resolver.publish resolver ~path:"/db" db_handle;
  (* php: forward to db then add 100 *)
  let php = Sys_.create_process t ~name:"php" in
  let php_img = Annot.image t php in
  let php_sym =
    Annot.import php_img ~path:"/db" ~sig_:sig1 ~props:Types.props_none ()
  in
  let db_stub = Annot.resolve t resolver php_sym in
  ignore
    (Annot.declare_function t php_img ~name:"page"
       [ Isa.Call db_stub; Isa.Addi (0, 0, 100); Isa.Ret ]);
  let php_handle =
    Annot.declare_entries t php_img ~name:"php" [ ("page", sig1, Types.props_none) ]
  in
  Resolver.publish resolver ~path:"/php" php_handle;
  (* web: call php *)
  let web = Sys_.create_process t ~name:"web" in
  let web_img = Annot.image t web in
  let web_sym =
    Annot.import web_img ~path:"/php" ~sig_:sig1 ~props:Types.props_none ()
  in
  let th = Sys_.create_thread t web in
  (match Annot.call t resolver th web_sym ~args:[ 7; 8 ] with
  | Ok v -> Alcotest.(check int) "7+8+100 through 3 processes" 115 v
  | Error f -> Alcotest.failf "fault: %s" (Dipc_hw.Fault.to_string f));
  (* And again, warm. *)
  match Annot.call t resolver th web_sym ~args:[ 1; 1 ] with
  | Ok v -> Alcotest.(check int) "warm nested" 102 v
  | Error f -> Alcotest.failf "fault: %s" (Dipc_hw.Fault.to_string f)

let test_nested_calls_high_isolation () =
  (* Same three-process chain, full mutual isolation everywhere. *)
  let t = Sys_.create () in
  let resolver = Resolver.create () in
  let sig1 = Types.signature ~args:2 ~rets:1 () in
  let db = Sys_.create_process t ~name:"db" in
  let db_img = Annot.image t db in
  ignore (Annot.declare_function t db_img ~name:"add" [ Isa.Add (0, 0, 1); Isa.Ret ]);
  let db_handle =
    Annot.declare_entries t db_img ~name:"db" [ ("add", sig1, Types.props_high) ]
  in
  Resolver.publish resolver ~path:"/db" db_handle;
  let php = Sys_.create_process t ~name:"php" in
  let php_img = Annot.image t php in
  let php_sym = Annot.import php_img ~path:"/db" ~sig_:sig1 ~props:Types.props_high () in
  let db_stub = Annot.resolve t resolver php_sym in
  ignore
    (Annot.declare_function t php_img ~name:"page"
       [ Isa.Call db_stub; Isa.Addi (0, 0, 100); Isa.Ret ]);
  let php_handle =
    Annot.declare_entries t php_img ~name:"php" [ ("page", sig1, Types.props_high) ]
  in
  Resolver.publish resolver ~path:"/php" php_handle;
  let web = Sys_.create_process t ~name:"web" in
  let web_img = Annot.image t web in
  let web_sym = Annot.import web_img ~path:"/php" ~sig_:sig1 ~props:Types.props_high () in
  let th = Sys_.create_thread t web in
  match Annot.call t resolver th web_sym ~args:[ 7; 8 ] with
  | Ok v -> Alcotest.(check int) "fully isolated nested chain" 115 v
  | Error f -> Alcotest.failf "fault: %s" (Dipc_hw.Fault.to_string f)

(* --- proxy templates --- *)

let test_template_cache_grows_by_specialisation () =
  (* A cache explicitly shared by two systems (the paper's build-time
     sharing; per-system private caches are the domain-safe default). *)
  let cache = Dipc_core.Proxy_cache.create () in
  (* Two different signatures must create two specialisations. *)
  ignore
    (Scenario.make ~sig_:(Types.signature ~args:1 ~rets:1 ()) ~proxy_cache:cache ());
  let mid = Proxy.template_count cache in
  ignore
    (Scenario.make
       ~sig_:(Types.signature ~args:1 ~rets:1 ~cap_args:2 ())
       ~proxy_cache:cache ());
  let after = Proxy.template_count cache in
  Alcotest.(check bool) "first scenario instantiates a template" true (mid > 0);
  Alcotest.(check bool) "new signature, new specialisation" true (after > mid)

let test_lean_vs_full_template () =
  Alcotest.(check bool) "same-process low is lean" true
    (Proxy.is_lean
       { Proxy.sig_ = Types.signature (); eff = Types.props_none; cross_process = false; tls_switch = false });
  Alcotest.(check bool) "cross-process is full" false
    (Proxy.is_lean
       { Proxy.sig_ = Types.signature (); eff = Types.props_none; cross_process = true; tls_switch = true });
  Alcotest.(check bool) "high is full" false
    (Proxy.is_lean
       { Proxy.sig_ = Types.signature (); eff = Types.props_high; cross_process = false; tls_switch = false })

(* --- measured cost bands (Figure 5) --- *)

let mean s = s.Dipc_sim.Stats.s_mean

let test_fig5_cost_ordering () =
  let low = mean (Scenario.measure (Scenario.make ~same_process:true ())) in
  let high =
    mean
      (Scenario.measure
         (Scenario.make ~same_process:true ~caller_props:Types.props_high
            ~callee_props:Types.props_high ()))
  in
  let plow = mean (Scenario.measure (Scenario.make ())) in
  let phigh =
    mean
      (Scenario.measure
         (Scenario.make ~caller_props:Types.props_high ~callee_props:Types.props_high ()))
  in
  (* dIPC Low < syscall < dIPC High (Fig. 5's key ordering). *)
  Alcotest.(check bool) "low < syscall" true (low < Dipc_sim.Costs.syscall_total);
  Alcotest.(check bool) "low < high" true (low < high);
  Alcotest.(check bool) "same-process < cross-process" true (low < plow && high < phigh);
  (* Asymmetric policies differ by a large factor (paper: up to 8.47x). *)
  Alcotest.(check bool) "policy range > 3x" true (high /. low > 3.);
  (* Cross-process High lands in the paper's band (~106 ns, 53x). *)
  Alcotest.(check bool) "dIPC +proc High band" true (phigh > 60. && phigh < 180.)

let test_tls_optimization_headroom () =
  (* Sec. 7.2: optimising the TLS switch buys 1.54x-3.22x. *)
  let normal = mean (Scenario.measure (Scenario.make ())) in
  let optimised = mean (Scenario.measure (Scenario.make ~tls_optimized:true ())) in
  let headroom = normal /. optimised in
  Alcotest.(check bool) "headroom in band" true (headroom > 1.3 && headroom < 3.5)

let test_fig5_vs_ipc_speedups () =
  (* The headline numbers: dIPC is ~64x faster than local RPC and ~9x
     faster than L4 (allow generous bands). *)
  let phigh =
    mean
      (Scenario.measure
         (Scenario.make ~caller_props:Types.props_high ~callee_props:Types.props_high ()))
  in
  let rpc =
    (Dipc_workloads.Microbench.run ~warmup:10 ~iters:50 ~same_cpu:true
       Dipc_workloads.Microbench.Local_rpc)
      .Dipc_workloads.Microbench.mean_ns
  in
  let l4 =
    (Dipc_workloads.Microbench.run ~warmup:10 ~iters:50 ~same_cpu:true
       Dipc_workloads.Microbench.L4)
      .Dipc_workloads.Microbench.mean_ns
  in
  let rpc_speedup = rpc /. phigh and l4_speedup = l4 /. phigh in
  Alcotest.(check bool) "RPC speedup 35x-100x" true
    (rpc_speedup > 35. && rpc_speedup < 100.);
  Alcotest.(check bool) "L4 speedup 5x-15x" true (l4_speedup > 5. && l4_speedup < 15.)

let test_proc_track_cold_then_warm () =
  let s = Scenario.make () in
  (* First call takes the cold resolve path; later calls the fast path. *)
  (match Scenario.call s ~args:[ 1; 1 ] with Ok _ -> () | Error _ -> Alcotest.fail "call");
  let cold = s.Scenario.sys.Sys_.resolve_cold in
  Alcotest.(check bool) "cold path taken once" true (cold >= 1);
  for _ = 1 to 5 do
    ignore (Scenario.call s ~args:[ 1; 1 ])
  done;
  Alcotest.(check int) "no more cold paths" cold s.Scenario.sys.Sys_.resolve_cold

let test_stub_coopt_model () =
  let setjmp, try_ = Isolation.exception_recovery_costs () in
  Alcotest.(check bool) "try ~2.5x faster (Sec. 5.3.1)" true
    (setjmp /. try_ > 2.2 && setjmp /. try_ < 2.8)

(* --- the warm crossing path --- *)

(* The six dIPC rows of Figure 5: (same process, TLS optimised, High). *)
let fig5_policies =
  [
    ("low", true, false, false);
    ("high", true, false, true);
    ("low+proc", false, false, false);
    ("high+proc", false, false, true);
    ("low+proc+tls", false, true, false);
    ("high+proc+tls", false, true, true);
  ]

let make_policy ?fn (_, same_process, tls_optimized, high) =
  let props = if high then Types.props_high else Types.props_low in
  Scenario.make ~same_process ~tls_optimized ~caller_props:props ~callee_props:props ?fn ()

let call_ok s ~args =
  match Scenario.call s ~args with
  | Ok v -> v
  | Error f -> Alcotest.failf "call faulted: %s" (Dipc_hw.Fault.to_string f)

(* Every page a warm call touches keeps its own translation-cache way:
   after the cold calls, 1,000 calls of each policy walk the page table
   zero times.  The refill counter is host-side only (in no digest). *)
let test_warm_calls_take_no_tlb_refills () =
  List.iter
    (fun ((name, _, _, _) as p) ->
      let s = make_policy p in
      for _ = 1 to 3 do
        ignore (call_ok s ~args:[ 1; 2 ])
      done;
      let m = s.Scenario.sys.Sys_.machine in
      let r0 = m.Machine.tlb_refills in
      for i = 1 to 1_000 do
        ignore (call_ok s ~args:[ i; i ])
      done;
      Alcotest.(check int) (name ^ ": TLB refills in 1,000 warm calls") 0
        (m.Machine.tlb_refills - r0))
    fig5_policies

(* [Call.setup] reinstalls the thread's stack capability built once in
   [System.create_thread]: setting a thread up for a call must not build
   a capability (an option, a record and a scope block, 11 words) every
   time.  1,000 set-ups of each Fig. 5 policy on a warm scenario. *)
let test_call_setup_allocation () =
  let args = [ 1; 2 ] in
  List.iter
    (fun ((name, _, _, _) as p) ->
      let s = make_policy p in
      ignore (call_ok s ~args);
      let sys = s.Scenario.sys and th = s.Scenario.thread in
      let fn = s.Scenario.stub in
      let w0 = Gc.minor_words () in
      for _ = 1 to 1_000 do
        Call.setup sys th ~fn ~args
      done;
      let words = (Gc.minor_words () -. w0) /. 1_000. in
      if words > 5. then
        Alcotest.failf "%s: Call.setup allocates %.1f words per call (at most 5)"
          name words)
    fig5_policies

(* DCS confidentiality across recycled stacks: a callee that leaves two
   capabilities on its DCS must not hand them to the next call, even
   though the next call's callee runs on the very same (recycled)
   stack array. *)
let test_dcs_confidentiality_across_calls () =
  let policy = ("high+proc+tls", false, true, true) in
  (* The callee derives a capability over its process's TLS page from its
     APL and pushes it twice.  Placement is deterministic, so a first
     scenario tells us where that page is. *)
  let leaky tls =
    [
      Isa.Add (0, 0, 1);
      Isa.Const (2, tls);
      Isa.Const (3, 8);
      Isa.CapAplDerive (0, 2, 3, Perm.Read);
      Isa.CapPush 0;
      Isa.CapPush 0;
      Isa.Ret;
    ]
  in
  let tls = (make_policy ~fn:(leaky 0) policy).Scenario.callee.Sys_.tls_base in
  let s = make_policy ~fn:(leaky tls) policy in
  let dcs = s.Scenario.thread.Sys_.t_ctx.Machine.dcs in
  let empty_after_call what =
    Alcotest.(check int) (what ^ ": caller DCS depth") 0 (Dipc_hw.Dcs.depth dcs);
    let stack = dcs.Dipc_hw.Dcs.spare in
    Alcotest.(check bool) (what ^ ": callee stack kept") true (Array.length stack > 0);
    Array.iteri
      (fun i slot ->
        if slot <> None then
          Alcotest.failf "%s: slot %d of the next call's stack holds a capability" what i)
      stack;
    stack
  in
  Alcotest.(check int) "first call" 7 (call_ok s ~args:[ 3; 4 ]);
  let next_stack = empty_after_call "after the first call" in
  Alcotest.(check int) "second call" 11 (call_ok s ~args:[ 5; 6 ]);
  (* The second callee ran on the stack checked empty above. *)
  Alcotest.(check bool) "second call ran on the recycled stack" true
    (dcs.Dipc_hw.Dcs.spare == next_stack);
  ignore (empty_after_call "after the second call");
  Alcotest.(check int) "both callees ran to completion" 0
    s.Scenario.sys.Sys_.fault_notices

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "core.types",
      [
        Alcotest.test_case "signature validation" `Quick test_signature_validation;
        Alcotest.test_case "props union" `Quick test_props_union;
      ] );
    ( "core.gvas",
      [
        Alcotest.test_case "disjoint" `Quick test_gvas_alloc_disjoint;
        Alcotest.test_case "owner lookup" `Quick test_gvas_owner_lookup;
        Alcotest.test_case "block reuse" `Quick test_gvas_block_reuse;
      ]
      @ qsuite [ prop_gvas_no_overlap ] );
    ( "core.domains",
      [
        Alcotest.test_case "dom_copy downgrade only" `Quick test_dom_copy_downgrade_only;
        Alcotest.test_case "dom_mmap owner only" `Quick test_dom_mmap_requires_owner;
        Alcotest.test_case "dom_remap" `Quick test_dom_remap;
        Alcotest.test_case "grant lifecycle" `Quick test_grant_lifecycle;
        Alcotest.test_case "grant needs owner src" `Quick test_grant_requires_src_owner;
      ] );
    ( "core.calls",
      [
        Alcotest.test_case "correct result" `Quick test_call_correct_result;
        Alcotest.test_case "all policies correct" `Quick test_call_all_policies_correct;
        Alcotest.test_case "same-process domains" `Quick test_call_same_process_domains;
        Alcotest.test_case "signature mismatch (P4)" `Quick test_signature_mismatch_denied;
        Alcotest.test_case "resolver permissions" `Quick test_resolver_permissions;
        Alcotest.test_case "entry residency" `Quick test_entry_register_requires_domain_residency;
        Alcotest.test_case "nested 3-process chain" `Quick test_nested_calls;
        Alcotest.test_case "nested chain, high isolation" `Quick test_nested_calls_high_isolation;
      ] );
    ( "core.proxy",
      [
        Alcotest.test_case "template cache" `Quick test_template_cache_grows_by_specialisation;
        Alcotest.test_case "lean vs full" `Quick test_lean_vs_full_template;
        Alcotest.test_case "cold/warm tracking" `Quick test_proc_track_cold_then_warm;
      ] );
    ( "core.hot_path",
      [
        Alcotest.test_case "warm calls take no TLB refills" `Quick
          test_warm_calls_take_no_tlb_refills;
        Alcotest.test_case "Call.setup allocates at most 5 words" `Quick
          test_call_setup_allocation;
        Alcotest.test_case "DCS confidentiality across calls" `Quick
          test_dcs_confidentiality_across_calls;
      ] );
    ( "core.costs",
      [
        Alcotest.test_case "Fig. 5 ordering" `Quick test_fig5_cost_ordering;
        Alcotest.test_case "TLS headroom" `Quick test_tls_optimization_headroom;
        Alcotest.test_case "Fig. 5 speedups" `Quick test_fig5_vs_ipc_speedups;
        Alcotest.test_case "stub co-optimisation" `Quick test_stub_coopt_model;
      ] );
  ]
