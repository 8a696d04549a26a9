(* Security-model tests: properties P1-P5 of Sec. 5.1, fault notification
   and KCS unwinding (Sec. 5.2.1), thread-private stacks, and call
   time-outs by thread splitting (Sec. 5.4).

   Each behavioural difference between isolation policies is tested in
   both directions: the protection holds when requested, and is (by
   design) absent when not requested. *)

module Perm = Dipc_hw.Perm
module Machine = Dipc_hw.Machine
module Isa = Dipc_hw.Isa
module Fault = Dipc_hw.Fault
module Sys_ = Dipc_core.System
module Types = Dipc_core.Types
module Entry = Dipc_core.Entry
module Annot = Dipc_core.Annot
module Resolver = Dipc_core.Resolver
module Call = Dipc_core.Call
module Loader = Dipc_core.Loader

let sig2 = Types.signature ~args:2 ~rets:1 ()

(* Two processes connected by one exported entry; returns everything the
   tests below poke at. *)
type duo = {
  t : Sys_.t;
  caller : Sys_.process;
  callee : Sys_.process;
  caller_img : Annot.image;
  callee_img : Annot.image;
  th : Sys_.thread;
  stub : int; (* generated caller stub *)
}

let make_duo ?(caller_props = Types.props_none) ?(callee_props = Types.props_none)
    ?(fn = [ Isa.Add (0, 0, 1); Isa.Ret ]) () =
  let t = Sys_.create () in
  let resolver = Resolver.create () in
  let callee = Sys_.create_process t ~name:"callee" in
  let callee_img = Annot.image t callee in
  ignore (Annot.declare_function t callee_img ~name:"fn" fn);
  let handle =
    Annot.declare_entries t callee_img ~name:"svc" [ ("fn", sig2, callee_props) ]
  in
  Resolver.publish resolver ~path:"/svc" handle;
  let caller = Sys_.create_process t ~name:"caller" in
  let caller_img = Annot.image t caller in
  let sym = Annot.import caller_img ~path:"/svc" ~sig_:sig2 ~props:caller_props () in
  let stub = Annot.resolve t resolver sym in
  let th = Sys_.create_thread t caller in
  { t; caller; callee; caller_img; callee_img; th; stub }

let exec d ~fn ~args = Call.exec d.t d.th ~fn ~args

let expect_dead d ~fn ~args kind_check =
  match exec d ~fn ~args with
  | Ok v -> Alcotest.failf "expected the thread to die, got %d" v
  | Error f ->
      if not (kind_check f.Fault.kind) then
        Alcotest.failf "unexpected fault: %s" (Fault.to_string f)

(* --- P1: no access without an explicit grant --- *)

let test_p1_no_cross_process_reads () =
  let d = make_duo () in
  (* An address squarely inside the callee's default domain. *)
  let secret = Sys_.dom_mmap d.t (Sys_.dom_default d.callee) ~bytes:4096 () in
  Sys_.store d.t secret 12345;
  let spy =
    Annot.declare_function d.t d.caller_img ~name:"spy"
      [ Isa.Const (1, secret); Isa.Load (0, 1, 0); Isa.Ret ]
  in
  expect_dead d ~fn:spy ~args:[]
    (function Fault.No_permission _ -> true | _ -> false)

let test_p1_no_direct_jump_into_callee () =
  let d = make_duo () in
  let target = Annot.function_addr d.callee_img "fn" in
  let jumper =
    Annot.declare_function d.t d.caller_img ~name:"jumper" [ Isa.Call target; Isa.Ret ]
  in
  expect_dead d ~fn:jumper ~args:[ 1; 2 ]
    (function Fault.No_permission _ -> true | _ -> false)

let test_p1_grant_enables_access () =
  (* The same read succeeds after the callee explicitly grants it. *)
  let d = make_duo () in
  let data_dom = Sys_.dom_create d.t d.callee in
  let secret = Sys_.dom_mmap d.t data_dom ~bytes:4096 () in
  Sys_.store d.t secret 777;
  ignore
    (Sys_.grant_create d.t
       ~src:(Sys_.dom_default d.caller)
       ~dst:(Sys_.dom_copy data_dom Perm.Read));
  let reader =
    Annot.declare_function d.t d.caller_img ~name:"reader"
      [ Isa.Const (1, secret); Isa.Load (0, 1, 0); Isa.Ret ]
  in
  match exec d ~fn:reader ~args:[] with
  | Ok v -> Alcotest.(check int) "granted read works" 777 v
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

(* --- P2: calls enter only through proxies, on valid stacks --- *)

let test_p2_misaligned_proxy_entry () =
  let t = Sys_.create () in
  let callee = Sys_.create_process t ~name:"callee" in
  let img = Annot.image t callee in
  ignore (Annot.declare_function t img ~name:"fn" [ Isa.Ret ]);
  let stub_addr = Annot.function_addr img "fn" in
  let handle =
    Entry.entry_register t ~dom:(Sys_.dom_default callee)
      [| { Entry.e_addr = stub_addr; e_sig = sig2; e_policy = Types.props_none } |]
  in
  let caller = Sys_.create_process t ~name:"caller" in
  let set =
    Entry.entry_request t ~caller ~caller_dom:(Sys_.dom_default caller)
      ~entry:handle [| (sig2, Types.props_none) |]
  in
  ignore (Sys_.grant_create t ~src:(Sys_.dom_default caller) ~dst:set.Entry.ps_dom);
  let proxy = set.Entry.ps_proxies.(0) in
  let th = Sys_.create_thread t caller in
  (* A call into the middle of the proxy must fault on alignment. *)
  let evil =
    Loader.place_fn t ~dom:(Sys_.dom_default caller)
      [ Isa.Call (proxy.Entry.p_entry + Isa.instr_bytes); Isa.Ret ]
  in
  (match Call.exec t th ~fn:evil ~args:[] with
  | Ok _ -> Alcotest.fail "expected alignment fault"
  | Error f ->
      Alcotest.(check bool) "misaligned entry rejected" true
        (match f.Fault.kind with Fault.Not_entry_point -> true | _ -> false));
  (* The aligned entry works. *)
  let good =
    Loader.place_fn t ~dom:(Sys_.dom_default caller)
      [ Isa.Call proxy.Entry.p_entry; Isa.Ret ]
  in
  match Call.exec t th ~fn:good ~args:[ 0; 0 ] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "aligned call failed: %s" (Fault.to_string f)

let test_p2_stack_validity_check () =
  let d = make_duo () in
  (* Point sp at a writable page that is not the thread's stack: the
     proxy's bounds check must trap. *)
  let fake_stack = Sys_.dom_mmap d.t (Sys_.dom_default d.caller) ~bytes:4096 () in
  let evil =
    Annot.declare_function d.t d.caller_img ~name:"evil"
      [ Isa.Const (Isa.sp, fake_stack + 4096 - 8); Isa.Call d.stub; Isa.Ret ]
  in
  expect_dead d ~fn:evil ~args:[ 1; 2 ]
    (function Fault.Software_trap 7 -> true | _ -> false)

(* --- P3: returns go back to the caller's expected point --- *)

let test_p3_callee_cannot_redirect_return () =
  (* The callee overwrites its return slot with an address inside the
     caller; the return transfer check must refuse it (the callee has no
     permission to the caller's domain). *)
  let probe = ref 0 in
  ignore probe;
  let d =
    make_duo
      ~fn:[ Isa.Const (12, 0xdead000); Isa.Store (Isa.sp, 0, 12); Isa.Ret ]
      ()
  in
  (* The fault is flagged to the caller, which resumes with errno set. *)
  (match exec d ~fn:d.stub ~args:[ 1; 2 ] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "caller should survive: %s" (Fault.to_string f));
  Alcotest.(check int) "errno flags the callee fault" Types.err_callee_fault
    (Sys_.errno d.t d.th)

let test_p3_return_reaches_caller_exactly () =
  let d = make_duo () in
  let wrapper =
    Annot.declare_function d.t d.caller_img ~name:"wrapper"
      [
        Isa.Const (8, 4321) (* callee-saved marker *);
        Isa.Call d.stub;
        Isa.Mov (1, 8);
        Isa.Addi (0, 0, 0);
        Isa.Ret;
      ]
  in
  match exec d ~fn:wrapper ~args:[ 30; 12 ] with
  | Ok v -> Alcotest.(check int) "flow resumed after the call site" 42 v
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

(* --- P5 + policy behaviour: register integrity --- *)

let callee_clobbers_saved_regs =
  [ Isa.Const (8, 9999); Isa.Const (9, 9999); Isa.Add (0, 0, 1); Isa.Ret ]

let reg_integrity_result ~caller_props =
  let d = make_duo ~caller_props ~fn:callee_clobbers_saved_regs () in
  let wrapper =
    Annot.declare_function d.t d.caller_img ~name:"wrapper"
      [ Isa.Const (8, 1234); Isa.Call d.stub; Isa.Mov (0, 8); Isa.Ret ]
  in
  match exec d ~fn:wrapper ~args:[ 1; 2 ] with
  | Ok v -> v
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

let test_register_integrity_protects () =
  let p = { Types.props_none with Types.reg_integrity = true } in
  Alcotest.(check int) "live register survives a hostile callee" 1234
    (reg_integrity_result ~caller_props:p)

let test_no_register_integrity_no_protection () =
  Alcotest.(check int) "without the property the clobber is visible" 9999
    (reg_integrity_result ~caller_props:Types.props_none)

(* --- register confidentiality --- *)

let callee_reads_r5 = [ Isa.Mov (0, 5); Isa.Ret ]

let reg_conf_result ~caller_props =
  let d = make_duo ~caller_props ~fn:callee_reads_r5 () in
  let wrapper =
    Annot.declare_function d.t d.caller_img ~name:"wrapper"
      [ Isa.Const (5, 555) (* a caller secret *); Isa.Call d.stub; Isa.Ret ]
  in
  match exec d ~fn:wrapper ~args:[ 1; 2 ] with
  | Ok v -> v
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

let test_register_confidentiality_hides () =
  let p = { Types.props_none with Types.reg_confidentiality = true } in
  Alcotest.(check int) "secret zeroed before the call" 0 (reg_conf_result ~caller_props:p)

let test_no_register_confidentiality_leaks () =
  Alcotest.(check int) "without the property the callee sees it" 555
    (reg_conf_result ~caller_props:Types.props_none)

(* --- callee-side register confidentiality (P5: enforced by the callee's
   own stub, no cooperation needed from the caller) --- *)

let test_callee_confidentiality_scrubs_results () =
  let fn = [ Isa.Const (5, 777) (* callee secret *); Isa.Add (0, 0, 1); Isa.Ret ] in
  let callee_props = { Types.props_none with Types.reg_confidentiality = true } in
  let d = make_duo ~callee_props ~fn () in
  let wrapper =
    Annot.declare_function d.t d.caller_img ~name:"wrapper"
      [ Isa.Const (5, 0); Isa.Call d.stub; Isa.Mov (0, 5); Isa.Ret ]
  in
  match exec d ~fn:wrapper ~args:[ 1; 2 ] with
  | Ok v -> Alcotest.(check int) "callee secret scrubbed on return" 0 v
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

(* --- data stack confidentiality --- *)

(* The callee peeks above its stack frame; with a shared stack it sees the
   caller's data, with split stacks it sees its own fresh stack. *)
let callee_peeks_stack = [ Isa.Load (0, Isa.sp, 24); Isa.Ret ]

let stack_conf_result ~props =
  let d = make_duo ~caller_props:props ~callee_props:props ~fn:callee_peeks_stack () in
  let wrapper =
    Annot.declare_function d.t d.caller_img ~name:"wrapper"
      [
        Isa.Const (12, 4242);
        Isa.Addi (Isa.sp, Isa.sp, -8);
        Isa.Store (Isa.sp, 0, 12);
        Isa.Call d.stub;
        Isa.Addi (Isa.sp, Isa.sp, 8);
        Isa.Ret;
      ]
  in
  match exec d ~fn:wrapper ~args:[ 1; 2 ] with
  | Ok v -> v
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

let test_stack_confidentiality_splits () =
  (* With split stacks the callee's peek lands on its own (empty) stack —
     or faults outright at its stack boundary and is unwound; either way
     the caller's 4242 must not be visible. *)
  let p = { Types.props_none with Types.stack_confidentiality = true } in
  Alcotest.(check bool) "callee cannot see the caller's stack" true
    (stack_conf_result ~props:p <> 4242)

let test_shared_stack_leaks_by_design () =
  Alcotest.(check int) "without the property the stack is shared" 4242
    (stack_conf_result ~props:Types.props_none)

(* --- thread-private stacks (Sec. 5.2.1) --- *)

let test_thread_stack_privacy () =
  let t = Sys_.create () in
  let p = Sys_.create_process t ~name:"p" in
  let img = Annot.image t p in
  let th_a = Sys_.create_thread t p in
  let th_b = Sys_.create_thread t p in
  let spy =
    Annot.declare_function t img ~name:"spy"
      [ Isa.Const (1, th_a.Sys_.t_stack_base); Isa.Load (0, 1, 0); Isa.Ret ]
  in
  (* Thread B cannot touch thread A's stack even inside one process. *)
  (match Call.exec t th_b ~fn:spy ~args:[] with
  | Ok _ -> Alcotest.fail "thread B read thread A's stack"
  | Error f ->
      Alcotest.(check bool) "denied" true
        (match f.Fault.kind with Fault.No_permission _ -> true | _ -> false));
  (* Thread A can, of course, use its own stack. *)
  let own =
    Annot.declare_function t img ~name:"own"
      [ Isa.Const (1, th_a.Sys_.t_stack_base); Isa.Load (0, 1, 0); Isa.Ret ]
  in
  match Call.exec t th_a ~fn:own ~args:[] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "own stack read failed: %s" (Fault.to_string f)

(* --- fault notification and unwinding (Sec. 5.2.1) --- *)

let test_crash_unwinds_to_caller () =
  let d = make_duo ~fn:[ Isa.Trap 99 ] () in
  (match exec d ~fn:d.stub ~args:[ 1; 2 ] with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "caller should survive: %s" (Fault.to_string f));
  Alcotest.(check int) "errno set" Types.err_callee_fault (Sys_.errno d.t d.th);
  (* The system stays usable: a healthy entry still works on the same
     thread. *)
  let d2_fn =
    Annot.declare_function d.t d.caller_img ~name:"local" [ Isa.Const (0, 5); Isa.Ret ]
  in
  match exec d ~fn:d2_fn ~args:[] with
  | Ok v -> Alcotest.(check int) "thread still usable" 5 v
  | Error f -> Alcotest.failf "fault: %s" (Fault.to_string f)

let test_crash_without_caller_kills_thread () =
  let d = make_duo () in
  let crash =
    Annot.declare_function d.t d.caller_img ~name:"crash" [ Isa.Trap 13 ]
  in
  expect_dead d ~fn:crash ~args:[]
    (function Fault.Software_trap 13 -> true | _ -> false)

let test_kill_unwinds_running_callee () =
  (* The callee spins; we run out of fuel mid-callee, kill the callee
     process, and deliver the kill: the caller must resume with errno. *)
  let d =
    make_duo ~fn:[ Isa.Jmp 0 (* patched below *) ] ()
  in
  (* Build a real spin loop in the callee's image. *)
  let spin_entry = Annot.function_addr d.callee_img "fn" in
  ignore
    (Dipc_hw.Memory.place_code d.t.Sys_.machine.Sys_.Machine.mem ~addr:spin_entry
       [ Isa.Jmp spin_entry ]);
  Call.setup d.t d.th ~fn:d.stub ~args:[ 1; 2 ];
  (match Call.run d.t d.th ~fuel:20_000 () with
  | Ok _ -> Alcotest.fail "should not complete"
  | Error _ -> Alcotest.fail "should not fault yet"
  | exception Machine.Out_of_fuel -> ());
  Sys_.kill_process d.t d.callee;
  (match Call.deliver_kill d.t d.th with
  | `Resumed -> ()
  | `Dead -> Alcotest.fail "caller was alive");
  (match Call.run d.t d.th () with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "caller should finish: %s" (Fault.to_string f));
  Alcotest.(check int) "errno marks the kill" Types.err_callee_killed
    (Sys_.errno d.t d.th)

let test_unwind_skips_dead_intermediate () =
  (* web -> php -> db; php dies while db spins; the kill must unwind past
     php's dead frame to web. *)
  let t = Sys_.create () in
  let resolver = Resolver.create () in
  let db = Sys_.create_process t ~name:"db" in
  let db_img = Annot.image t db in
  let spin = Annot.declare_function t db_img ~name:"spin" [ Isa.Nop; Isa.Ret ] in
  ignore
    (Dipc_hw.Memory.place_code t.Sys_.machine.Sys_.Machine.mem ~addr:spin
       [ Isa.Jmp spin ]);
  let db_handle =
    Annot.declare_entries t db_img ~name:"db" [ ("spin", sig2, Types.props_none) ]
  in
  Resolver.publish resolver ~path:"/db" db_handle;
  let php = Sys_.create_process t ~name:"php" in
  let php_img = Annot.image t php in
  let php_sym = Annot.import php_img ~path:"/db" ~sig_:sig2 ~props:Types.props_none () in
  let db_stub = Annot.resolve t resolver php_sym in
  ignore
    (Annot.declare_function t php_img ~name:"page" [ Isa.Call db_stub; Isa.Ret ]);
  let php_handle =
    Annot.declare_entries t php_img ~name:"php" [ ("page", sig2, Types.props_none) ]
  in
  Resolver.publish resolver ~path:"/php" php_handle;
  let web = Sys_.create_process t ~name:"web" in
  let web_img = Annot.image t web in
  let web_sym = Annot.import web_img ~path:"/php" ~sig_:sig2 ~props:Types.props_none () in
  let web_stub = Annot.resolve t resolver web_sym in
  let th = Sys_.create_thread t web in
  Call.setup t th ~fn:web_stub ~args:[ 0; 0 ];
  (match Call.run t th ~fuel:50_000 () with
  | exception Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected to be spinning in db");
  Sys_.kill_process t php;
  Sys_.kill_process t db;
  (match Call.deliver_kill t th with
  | `Resumed -> ()
  | `Dead -> Alcotest.fail "web is alive and must be resumed");
  (match Call.run t th () with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "web should complete: %s" (Fault.to_string f));
  Alcotest.(check int) "errno delivered to web" Types.err_callee_killed
    (Sys_.errno t th)

(* --- time-outs by thread splitting (Sec. 5.4) --- *)

let slow_callee =
  [
    Isa.Const (1, 5000);
    Isa.Addi (1, 1, -1) (* loop head at +8 *);
    Isa.Bnez (1, 0) (* patched: branch back to loop head *);
    Isa.Const (0, 7);
    Isa.Ret;
  ]

let make_slow_duo ~props () =
  let d = make_duo ~caller_props:props ~callee_props:props ~fn:[ Isa.Nop; Isa.Ret ] () in
  (* Place the real slow loop over the callee function. *)
  let fn = Annot.function_addr d.callee_img "fn" in
  ignore
    (Dipc_hw.Memory.place_code d.t.Sys_.machine.Sys_.Machine.mem ~addr:fn
       [
         Isa.Const (1, 200_000);
         Isa.Addi (1, 1, -1);
         Isa.Bnez (1, fn + Isa.instr_bytes);
         Isa.Const (0, 7);
         Isa.Ret;
       ]);
  d

let test_timeout_split () =
  let props = { Types.props_none with Types.stack_confidentiality = true } in
  let d = make_slow_duo ~props () in
  Call.setup d.t d.th ~fn:d.stub ~args:[ 1; 2 ];
  (match Call.run d.t d.th ~fuel:10_000 () with
  | exception Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected the callee to still be running");
  (* Time out: split the thread. *)
  let callee_th =
    match Call.split_timeout d.t d.th with
    | Ok th -> th
    | Error e -> Alcotest.fail e
  in
  (* Caller resumes immediately with a time-out error. *)
  (match Call.run d.t d.th () with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "caller must resume: %s" (Fault.to_string f));
  Alcotest.(check int) "errno is timeout" Types.err_timeout (Sys_.errno d.t d.th);
  (* The callee side runs to completion and exits through the proxy that
     produced the split. *)
  (match Call.run d.t callee_th () with
  | Ok v -> Alcotest.(check int) "callee finished its work" 7 v
  | Error f -> Alcotest.failf "callee crashed: %s" (Fault.to_string f));
  Alcotest.(check bool) "callee thread exited" true
    callee_th.Sys_.t_ctx.Machine.halted

let test_timeout_split_requires_stack_confidentiality () =
  let d = make_slow_duo ~props:Types.props_none () in
  Call.setup d.t d.th ~fn:d.stub ~args:[ 1; 2 ];
  (match Call.run d.t d.th ~fuel:10_000 () with
  | exception Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected the callee to still be running");
  match Call.split_timeout d.t d.th with
  | Ok _ -> Alcotest.fail "split must require a separate stack"
  | Error _ -> ()

(* --- adversarial scenario matrix (hostile-domain suite) --- *)

module Adv = Dipc_workloads.Adversary

let backend_t = Alcotest.testable (Fmt.of_to_string Adv.backend_name) ( = )
let _ = backend_t

let fact_of_outcome = function
  | Adv.Ran audited -> (-1, audited)
  | Adv.Faulted f -> (Fault.kind_code f.Fault.kind, f.Fault.pc)
  | Adv.Refused s -> (-2, String.length s)

let pp_outcome = function
  | Adv.Ran a -> Printf.sprintf "Ran(audited=%d)" a
  | Adv.Faulted f -> Printf.sprintf "Faulted(%s)" (Fault.to_string f)
  | Adv.Refused s -> Printf.sprintf "Refused(%s)" s

(* Every directed scenario produces exactly the pinned (fault kind,
   canonical faulting pc) on every backend it applies to, on both
   interpreter paths. *)
let test_directed_corpus () =
  List.iter
    (fun s ->
      List.iter
        (fun backend ->
          List.iter
            (fun reference ->
              let where =
                Printf.sprintf "%s on %s (reference=%b)" s.Adv.s_name
                  (Adv.backend_name backend) reference
              in
              let outcome =
                Adv.run_one ~reference ~posture:Fault.Strict backend
                  s.Adv.s_attack
              in
              match (s.Adv.s_expect, outcome) with
              | None, Adv.Ran 0 -> ()
              | None, o ->
                  Alcotest.failf "%s: benign load did not run clean: %s" where
                    (pp_outcome o)
              | Some (k, pc), Adv.Faulted f ->
                  if Fault.kind_code f.Fault.kind <> Fault.kind_code k then
                    Alcotest.failf "%s: wrong fault kind: %s (wanted %s)" where
                      (Fault.kind_to_string f.Fault.kind)
                      (Fault.kind_to_string k);
                  Alcotest.(check int)
                    (Printf.sprintf "%s: canonical faulting pc" where)
                    pc f.Fault.pc
              | Some (k, _), o ->
                  Alcotest.failf "%s: expected %s fault, got %s" where
                    (Fault.kind_to_string k) (pp_outcome o))
            [ false; true ])
        s.Adv.s_backends)
    Adv.corpus

(* Proxy misuse: re-entering a proxy past its aligned entry point is a
   Not_entry_point fault at the re-entry target, identically on both
   interpreter paths. *)
let test_proxy_reentry_blocked () =
  let check reference =
    let outcome, target = Adv.proxy_reentry ~reference () in
    match outcome with
    | Adv.Faulted { Fault.kind = Fault.Not_entry_point; pc; _ } ->
        Alcotest.(check int)
          (Printf.sprintf "re-entry faults at the target (reference=%b)"
             reference)
          target pc;
        (target, pc)
    | o ->
        Alcotest.failf "re-entry not refused (reference=%b): %s" reference
          (pp_outcome o)
  in
  let compiled = check false and reference = check true in
  Alcotest.(check (pair int int)) "both paths agree" compiled reference

let test_wrong_signature_refused () =
  match Adv.wrong_signature () with
  | Adv.Refused _ -> ()
  | o -> Alcotest.failf "wrong-signature import resolved: %s" (pp_outcome o)

(* The cost-of-isolation pins: the cross-backend sweep digest is a
   constant of the architecture — equal on all three backends, both
   interpreter paths, per posture. *)
let posture_pins =
  [
    (Fault.Strict, "3200a6e73996421b");
    (Fault.Audit, "cef55316df108c36");
    (Fault.Permissive, "048215f44cd9df89");
  ]

let test_posture_digest_pins () =
  List.iter
    (fun (posture, pin) ->
      List.iter
        (fun backend ->
          List.iter
            (fun reference ->
              let outs, _ =
                Adv.sweep ~reference ~posture backend Adv.cross_attacks
              in
              Alcotest.(check string)
                (Printf.sprintf "pinned digest: %s under %s (reference=%b)"
                   (Adv.backend_name backend)
                   (Fault.posture_to_string posture)
                   reference)
                pin
                (Adv.digest_outcomes outs))
            [ false; true ])
        Adv.all_backends)
    posture_pins

(* The outcome fingerprint is a fold of its own, not the trace digest:
   each outcome's (code, tag, arg) words chained by
   h <- (rotl h 23 lxor w) * K from a fixed seed, splitmix64's finaliser
   at the end.  Written here as a plain list fold, sharing nothing with
   lib/. *)
let outcome_fold outs =
  let step h w =
    let rotl = Int64.logor (Int64.shift_left h 23) (Int64.shift_right_logical h 41) in
    Int64.mul (Int64.logxor rotl (Int64.of_int w)) 0x9E3779B97F4A7C15L
  in
  let words = function
    | Adv.Faulted f -> [ 1; Fault.kind_code f.Fault.kind; f.Fault.pc ]
    | Adv.Ran audited -> [ 0; -1; audited ]
    | Adv.Refused s -> [ 2; -2; String.length s ]
  in
  let h =
    List.fold_left
      (fun h o -> List.fold_left step h (words o))
      0x243F6A8885A308D3L outs
  in
  Printf.sprintf "%016Lx" (Test_trace.splitmix_finaliser h)

let test_outcome_digest_definition () =
  List.iter
    (fun (posture, _) ->
      List.iter
        (fun backend ->
          let attacks =
            if backend = Adv.Codoms then Adv.cross_attacks @ Adv.machine_attacks
            else Adv.cross_attacks
          in
          let outs, _ = Adv.sweep ~posture backend attacks in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s" (Adv.backend_name backend)
               (Fault.posture_to_string posture))
            (outcome_fold outs) (Adv.digest_outcomes outs))
        Adv.all_backends)
    posture_pins

(* Differential property: a random adversarial schedule — which the
   CODOMs sweep runs through ONE shared machine, rewriting attack code
   in place and revoking/re-granting APL entries between scenarios —
   yields the same per-scenario (fault kind, canonical pc) facts on all
   three backends, and byte-identical digests on the compiled path and
   the reference stepper. *)
let differential_prop =
  QCheck.Test.make ~name:"random adversarial schedules agree across backends"
    ~count:30
    QCheck.(pair (int_range 0 0xFFFF) (int_range 1 24))
    (fun (seed, n) ->
      let attacks = Adv.random_attacks ~seed ~n in
      let runs =
        List.map
          (fun backend ->
            let outs_c, cost_c =
              Adv.sweep ~posture:Fault.Strict backend attacks
            in
            let outs_r, cost_r =
              Adv.sweep ~reference:true ~posture:Fault.Strict backend attacks
            in
            if Adv.digest_outcomes outs_c <> Adv.digest_outcomes outs_r then
              QCheck.Test.fail_reportf "%s: compiled/reference digests diverge"
                (Adv.backend_name backend);
            if cost_c <> cost_r then
              QCheck.Test.fail_reportf "%s: compiled/reference costs diverge"
                (Adv.backend_name backend);
            (backend, List.map fact_of_outcome outs_c))
          Adv.all_backends
      in
      match runs with
      | (_, reference) :: rest ->
          List.iter
            (fun (backend, facts) ->
              if facts <> reference then
                QCheck.Test.fail_reportf
                  "%s disagrees with codoms on (kind, pc) facts"
                  (Adv.backend_name backend))
            rest;
          true
      | [] -> false)

(* Audit continuations are deterministic: two audit sweeps over the full
   directed schedule agree with each other and report the same number of
   downgraded denials. *)
let test_audit_determinism () =
  let sweep () = Adv.sweep ~posture:Fault.Audit Adv.Codoms (Adv.cross_attacks @ Adv.machine_attacks) in
  let outs1, cost1 = sweep () and outs2, cost2 = sweep () in
  Alcotest.(check string) "audit digest stable"
    (Adv.digest_outcomes outs1) (Adv.digest_outcomes outs2);
  Alcotest.(check (float 0.0)) "audit cost stable" cost1 cost2;
  let audited =
    List.fold_left
      (fun acc -> function Adv.Ran a -> acc + a | _ -> acc)
      0 outs1
  in
  Alcotest.(check bool) "audit posture recorded downgraded denials" true
    (audited > 0)

(* The posture rule, one row per fault kind: its verdict under each of
   [Fault.all_postures] (strict, audit, permissive).  Authorization
   faults are the downgradeable set; structural faults deny under every
   posture. *)
let test_posture_verdicts () =
  let authz = [ `Deny; `Audit; `Proceed ] and structural = [ `Deny; `Deny; `Deny ] in
  let rows =
    [
      (Fault.Unmapped, structural);
      (Fault.No_permission Perm.Read, authz);
      (Fault.Not_entry_point, authz);
      (Fault.Exec_violation, authz);
      (Fault.Write_to_readonly, authz);
      (Fault.Privilege_required, authz);
      (Fault.Cap_invalid, structural);
      (Fault.Cap_storage "store", authz);
      (Fault.Dcs_bounds "underflow", structural);
      (Fault.Bad_instruction, structural);
      (Fault.Software_trap 1, structural);
    ]
  in
  let name = function `Deny -> "deny" | `Audit -> "audit" | `Proceed -> "proceed" in
  List.iter
    (fun (kind, verdicts) ->
      List.iter2
        (fun posture expected ->
          Alcotest.(check string)
            (Fault.kind_to_string kind ^ " under " ^ Fault.posture_to_string posture)
            (name expected)
            (name (Fault.verdict posture kind)))
        Fault.all_postures verdicts)
    rows

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "security.p1",
      [
        Alcotest.test_case "no cross-process reads" `Quick test_p1_no_cross_process_reads;
        Alcotest.test_case "no direct jumps" `Quick test_p1_no_direct_jump_into_callee;
        Alcotest.test_case "grant enables access" `Quick test_p1_grant_enables_access;
      ] );
    ( "security.p2",
      [
        Alcotest.test_case "misaligned proxy entry" `Quick test_p2_misaligned_proxy_entry;
        Alcotest.test_case "stack validity" `Quick test_p2_stack_validity_check;
      ] );
    ( "security.p3",
      [
        Alcotest.test_case "return cannot be redirected" `Quick
          test_p3_callee_cannot_redirect_return;
        Alcotest.test_case "return reaches call site" `Quick
          test_p3_return_reaches_caller_exactly;
      ] );
    ( "security.properties",
      [
        Alcotest.test_case "reg integrity protects" `Quick test_register_integrity_protects;
        Alcotest.test_case "reg integrity off" `Quick test_no_register_integrity_no_protection;
        Alcotest.test_case "reg confidentiality hides" `Quick test_register_confidentiality_hides;
        Alcotest.test_case "reg confidentiality off" `Quick test_no_register_confidentiality_leaks;
        Alcotest.test_case "callee-side scrubbing (P5)" `Quick
          test_callee_confidentiality_scrubs_results;
        Alcotest.test_case "stack confidentiality splits" `Quick test_stack_confidentiality_splits;
        Alcotest.test_case "shared stack by design" `Quick test_shared_stack_leaks_by_design;
        Alcotest.test_case "thread stack privacy" `Quick test_thread_stack_privacy;
      ] );
    ( "security.unwinding",
      [
        Alcotest.test_case "crash unwinds to caller" `Quick test_crash_unwinds_to_caller;
        Alcotest.test_case "crash without caller" `Quick test_crash_without_caller_kills_thread;
        Alcotest.test_case "kill unwinds callee" `Quick test_kill_unwinds_running_callee;
        Alcotest.test_case "dead intermediate skipped" `Quick test_unwind_skips_dead_intermediate;
      ] );
    ( "security.timeouts",
      [
        Alcotest.test_case "split (Sec. 5.4)" `Quick test_timeout_split;
        Alcotest.test_case "split needs own stack" `Quick
          test_timeout_split_requires_stack_confidentiality;
      ] );
    ( "security.adversary",
      [
        Alcotest.test_case "directed corpus: pinned (kind, pc) everywhere" `Quick
          test_directed_corpus;
        Alcotest.test_case "proxy re-entry blocked at the target" `Quick
          test_proxy_reentry_blocked;
        Alcotest.test_case "wrong-signature import refused" `Quick
          test_wrong_signature_refused;
        Alcotest.test_case "cross-backend posture digests pinned" `Quick
          test_posture_digest_pins;
        Alcotest.test_case "outcome digest is a plain fold of its definition" `Quick
          test_outcome_digest_definition;
        Alcotest.test_case "audit continuations deterministic" `Quick
          test_audit_determinism;
        Alcotest.test_case "posture verdict per fault kind" `Quick
          test_posture_verdicts;
      ]
      @ qsuite [ differential_prop ] );
  ]
