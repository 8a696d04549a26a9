(* Differential conformance tests: one scenario corpus of domain-crossing
   situations, run through all three architecture miniatures (CHERI,
   MMP, and the CODOMs machine itself).  For every scenario the
   documented outcome per architecture must hold; where the models
   legitimately disagree (CODOMs has no hardware return stack — a return
   is just a jump, policed by the DCS at the software level), the
   disagreement is itself the documented expectation.  The Table 1 cost
   model is sanity-checked for the orderings the paper's comparison rests
   on. *)

module Perm = Dipc_hw.Perm
module Apl = Dipc_hw.Apl
module Page_table = Dipc_hw.Page_table
module Memory = Dipc_hw.Memory
module Machine = Dipc_hw.Machine
module Isa = Dipc_hw.Isa
module Layout = Dipc_hw.Layout
module Fault = Dipc_hw.Fault
module Cheri = Dipc_hw.Minicheri
module Mmp = Dipc_hw.Minimmp
module Archcmp = Dipc_hw.Archcmp

type outcome = Allowed | Denied

let outcome = Alcotest.testable (fun ppf o ->
    Fmt.string ppf (match o with Allowed -> "allowed" | Denied -> "denied"))
    ( = )

let succeeds = function
  | Ok () -> ()
  | Error f -> Alcotest.fail (Fault.to_string f)

(* --- per-architecture scenario runners ---

   Each runner sets up two domains A (caller) and B (callee) and plays
   one crossing situation, reporting whether the architecture allowed
   it. *)

(* CHERI: sealed capability pairs + trusted stack. *)
let cheri_run scenario =
  let authority = Cheri.cap ~base:0 ~len:100 ~perm:Cheri.Data in
  let code_b = Cheri.cap ~base:0x2000 ~len:0x1000 ~perm:Cheri.Exec in
  let data_b = Cheri.cap ~base:0x6000 ~len:0x1000 ~perm:Cheri.Data in
  let dom_b =
    match
      Cheri.make_domain ~authority ~otype:7 ~pc:0x1000 ~code:code_b ~data:data_b
    with
    | Ok d -> d
    | Error f -> Alcotest.fail (Fault.to_string f)
  in
  let fresh_cpu () =
    Cheri.cpu
      ~pcc:(Cheri.cap ~base:0x1000 ~len:0x1000 ~perm:Cheri.Exec)
      ~idc:(Cheri.cap ~base:0x5000 ~len:0x1000 ~perm:Cheri.Data)
  in
  let ok = function Ok () -> Allowed | Error _ -> Denied in
  match scenario with
  | `Legal_call_return ->
      let cpu = fresh_cpu () in
      if ok (Cheri.ccall cpu ~pc:0x2000 dom_b) = Denied then Denied
      else ok (Cheri.creturn cpu ~pc:0x2004)
  | `Unsanctioned_call ->
      (* Unsealed operands: a forged descriptor nobody sanctioned. *)
      let cpu = fresh_cpu () in
      ok
        (Cheri.ccall cpu ~pc:0x2000
           { Cheri.d_code = code_b; d_data = data_b; d_otype = 7 })
  | `Non_entry_target ->
      (* A data capability is not a legal crossing target. *)
      let cpu = fresh_cpu () in
      let swapped =
        match
          Cheri.make_domain ~authority ~otype:8 ~pc:0x1000
            ~code:(Cheri.cap ~base:0x2000 ~len:0x1000 ~perm:Cheri.Data)
            ~data:data_b
        with
        | Ok d -> d
        | Error f -> Alcotest.fail (Fault.to_string f)
      in
      ok (Cheri.ccall cpu ~pc:0x2000 swapped)
  | `Data_out_of_bounds ->
      let cpu = fresh_cpu () in
      succeeds (Cheri.ccall cpu ~pc:0x2000 dom_b);
      if Cheri.can_access cpu.Cheri.idc ~addr:0x9000 then Allowed else Denied
  | `Sealed_no_authority ->
      if Cheri.can_access dom_b.Cheri.d_data ~addr:0x6100 then Allowed
      else Denied
  | `Return_without_call ->
      let cpu = fresh_cpu () in
      ok (Cheri.creturn cpu ~pc:0x1000)

(* MMP: permission tables + switch/return gates. *)
let mmp_run scenario =
  let pd_a = Mmp.pd ~id:1 and pd_b = Mmp.pd ~id:2 in
  Mmp.grant pd_a ~base:0x1000 ~len:0x1000 ~perm:Mmp.Execute_read;
  Mmp.grant pd_b ~base:0x2000 ~len:0x1000 ~perm:Mmp.Execute_read;
  Mmp.grant pd_b ~base:0x6000 ~len:0x1000 ~perm:Mmp.Read_write;
  let cpu = Mmp.cpu ~initial:pd_a in
  Mmp.add_domain cpu pd_b;
  Mmp.add_gate cpu ~addr:0x2000 ~from_pd:1 ~to_pd:2;
  let ok = function Ok () -> Allowed | Error _ -> Denied in
  match scenario with
  | `Legal_call_return ->
      if ok (Mmp.call_gate cpu ~pc:0x2000 ~addr:0x2000) = Denied then Denied
      else ok (Mmp.return_gate cpu ~pc:0x2004)
  | `Unsanctioned_call ->
      (* 0x2400 is inside B's code but was never designated a gate. *)
      ok (Mmp.call_gate cpu ~pc:0x2400 ~addr:0x2400)
  | `Non_entry_target ->
      (* A gate crossed from the wrong source domain. *)
      Mmp.add_gate cpu ~addr:0x3000 ~from_pd:9 ~to_pd:2;
      ok (Mmp.call_gate cpu ~pc:0x3000 ~addr:0x3000)
  | `Data_out_of_bounds ->
      succeeds (Mmp.call_gate cpu ~pc:0x2000 ~addr:0x2000);
      if Mmp.can_access cpu.Mmp.current ~addr:0x9000 ~perm:Mmp.Read_only then
        Allowed
      else Denied
  | `Sealed_no_authority ->
      (* Revocation: the table entry is withdrawn. *)
      Mmp.revoke pd_b ~base:0x6000 ~len:0x1000;
      succeeds (Mmp.call_gate cpu ~pc:0x2000 ~addr:0x2000);
      if Mmp.can_access cpu.Mmp.current ~addr:0x6100 ~perm:Mmp.Read_only then
        Allowed
      else Denied
  | `Return_without_call -> ok (Mmp.return_gate cpu ~pc:0x1000)

(* CODOMs: the real machine model — crossings are plain jumps checked
   against the caller's APL; data accesses against tags/capabilities. *)
let codoms_run scenario =
  let m = Machine.create () in
  let tag_a = Apl.fresh_tag m.Machine.apl in
  let tag_b = Apl.fresh_tag m.Machine.apl in
  let code_a = 0x100000 and code_b = 0x200000 and data_b = 0x300000 in
  Page_table.map m.Machine.page_table ~addr:code_a ~count:1 ~tag:tag_a
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:code_b ~count:1 ~tag:tag_b
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:data_b ~count:1 ~tag:tag_b ();
  ignore
    (Memory.place_code m.Machine.mem ~addr:code_b [ Isa.Nop; Isa.Halt ]);
  let run_from ~pc program =
    ignore (Memory.place_code m.Machine.mem ~addr:pc program);
    let ctx = Machine.new_ctx m ~pc ~sp_value:0 in
    match Machine.run m ctx with
    | () -> Allowed
    | exception Fault.Fault _ -> Denied
  in
  match scenario with
  | `Legal_call_return ->
      (* Read rights both ways: call into B, jump back, continue in A. *)
      Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Perm.Read;
      Apl.grant m.Machine.apl ~src:tag_b ~dst:tag_a Perm.Read;
      ignore
        (Memory.place_code m.Machine.mem ~addr:code_b
           [ Isa.Jmp (code_a + (2 * Isa.instr_bytes)) ]);
      run_from ~pc:code_a [ Isa.Nop; Isa.Jmp code_b; Isa.Halt ]
  | `Unsanctioned_call ->
      (* No grant at all: the jump into B faults. *)
      run_from ~pc:code_a [ Isa.Jmp code_b; Isa.Halt ]
  | `Non_entry_target ->
      (* Call rights only admit aligned entry points (Sec. 4.1). *)
      Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Perm.Call;
      ignore
        (Memory.place_code m.Machine.mem ~addr:code_b
           [ Isa.Nop; Isa.Nop; Isa.Halt ]);
      run_from ~pc:code_a [ Isa.Jmp (code_b + Isa.instr_bytes); Isa.Halt ]
  | `Data_out_of_bounds ->
      (* B itself reads outside any page it can touch. *)
      run_from ~pc:code_b
        [ Isa.Const (1, 0x900000); Isa.Load (0, 1, 0); Isa.Halt ]
  | `Sealed_no_authority ->
      (* Grant, then revoke: the crossing must fault afterwards. *)
      Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Perm.Read;
      Apl.revoke m.Machine.apl ~src:tag_a ~dst:tag_b;
      run_from ~pc:code_a [ Isa.Jmp code_b; Isa.Halt ]
  | `Return_without_call ->
      (* Documented deviation: CODOMs has no hardware return stack — a
         "return" is an ordinary jump and succeeds whenever the APL
         admits it.  The DCS + kernel unwinding police returns in
         software (Sec. 5.2.1), which is exactly what Table 1's "S: 2x
         call" row is buying. *)
      Apl.grant m.Machine.apl ~src:tag_b ~dst:tag_a Perm.Read;
      ignore
        (Memory.place_code m.Machine.mem ~addr:code_a [ Isa.Halt ]);
      run_from ~pc:code_b [ Isa.Jmp code_a ]

(* --- the corpus: documented outcome per scenario per architecture --- *)

let corpus =
  [
    (`Legal_call_return, "legal call + return", Allowed, Allowed, Allowed);
    (`Unsanctioned_call, "unsanctioned crossing", Denied, Denied, Denied);
    (`Non_entry_target, "crossing outside the entry point", Denied, Denied,
     Denied);
    (`Data_out_of_bounds, "data access out of bounds", Denied, Denied, Denied);
    (`Sealed_no_authority, "sealed/revoked authority", Denied, Denied, Denied);
    (* The one documented deviation: no hardware return discipline on
       CODOMs. *)
    (`Return_without_call, "return without a call", Denied, Denied, Allowed);
  ]

let test_corpus () =
  (* Each scenario builds its own machine models, so the corpus shards
     cleanly across domains; assertions run post-merge on the main
     domain (Alcotest.check is not domain-safe mid-flight). *)
  let observed =
    Dipc_sim.Parallel.map
      (fun (scenario, _, _, _, _) ->
        (cheri_run scenario, mmp_run scenario, codoms_run scenario))
      corpus
  in
  List.iter2
    (fun (_, name, exp_cheri, exp_mmp, exp_codoms) (got_c, got_m, got_d) ->
      Alcotest.check outcome (name ^ " on CHERI") exp_cheri got_c;
      Alcotest.check outcome (name ^ " on MMP") exp_mmp got_m;
      Alcotest.check outcome (name ^ " on CODOMs") exp_codoms got_d)
    corpus observed

let test_models_agree_except_documented () =
  (* The corpus disagreements are exactly the documented deviations. *)
  let deviations =
    List.filter_map
      (fun (scenario, name, c, m, d) ->
        if c = m && m = d then None else Some (scenario, name))
      corpus
  in
  Alcotest.(check (list string))
    "documented deviations only" [ "return without a call" ]
    (List.map snd deviations)

(* --- uniform fault facts: same (kind, canonical pc) on every backend ---

   The Allowed/Denied corpus above is deliberately coarse.  Every
   miniature denial carries a {!Fault.t} with the same fault kind and
   the same canonical faulting pc the CODOMs machine raises for the
   equivalent attack, so the corpus's denial rows can be pinned
   uniformly, with no per-backend special-casing.  The raw-jump return
   deviation documented above is the one outcome that stays
   per-architecture; its software-level counterpart (DCS underflow) IS
   uniform, and is pinned here. *)

module Adv = Dipc_workloads.Adversary

(* Conformance scenario -> the adversary attack exercising the same
   situation. *)
let fact_rows =
  [
    ("unsanctioned crossing", Adv.Bad_crossing);
    ("crossing outside the entry point", Adv.Misaligned_entry);
    ("data access out of bounds", Adv.Oob_load);
    ("sealed/revoked authority", Adv.Use_after_revoke);
    ("return discipline (software level)", Adv.Return_underflow);
  ]

let test_uniform_fault_facts () =
  List.iter
    (fun (name, attack) ->
      let exp_kind, exp_pc =
        match Adv.expect attack with
        | Some e -> e
        | None -> Alcotest.failf "%s: no pinned expectation" name
      in
      List.iter
        (fun backend ->
          let where =
            Printf.sprintf "%s on %s" name (Adv.backend_name backend)
          in
          match Adv.run_one ~posture:Fault.Strict backend attack with
          | Adv.Faulted f ->
              Alcotest.(check int) (where ^ ": fault kind code")
                (Fault.kind_code exp_kind)
                (Fault.kind_code f.Fault.kind);
              Alcotest.(check int) (where ^ ": canonical pc") exp_pc f.Fault.pc
          | Adv.Ran _ -> Alcotest.failf "%s: denial retired" where
          | Adv.Refused s -> Alcotest.failf "%s: refused early: %s" where s)
        Adv.all_backends)
    fact_rows

(* --- crossings really trap/flush where the cost model says they do --- *)

let test_crossing_cost_mechanisms () =
  (* CHERI: both directions trap. *)
  let authority = Cheri.cap ~base:0 ~len:100 ~perm:Cheri.Data in
  let dom =
    match
      Cheri.make_domain ~authority ~otype:7 ~pc:0x1000
        ~code:(Cheri.cap ~base:0x2000 ~len:0x1000 ~perm:Cheri.Exec)
        ~data:(Cheri.cap ~base:0x6000 ~len:0x1000 ~perm:Cheri.Data)
    with
    | Ok d -> d
    | Error f -> Alcotest.fail (Fault.to_string f)
  in
  let cpu =
    Cheri.cpu
      ~pcc:(Cheri.cap ~base:0x1000 ~len:0x1000 ~perm:Cheri.Exec)
      ~idc:(Cheri.cap ~base:0x5000 ~len:0x1000 ~perm:Cheri.Data)
  in
  succeeds (Cheri.ccall cpu ~pc:0x2000 dom);
  succeeds (Cheri.creturn cpu ~pc:0x2004);
  Alcotest.(check int) "CHERI round trip = 2 exceptions" 2
    cpu.Cheri.exceptions;
  (* MMP: both directions flush the pipeline. *)
  let pd_a = Mmp.pd ~id:1 and pd_b = Mmp.pd ~id:2 in
  let mcpu = Mmp.cpu ~initial:pd_a in
  Mmp.add_domain mcpu pd_b;
  Mmp.add_gate mcpu ~addr:0x2000 ~from_pd:1 ~to_pd:2;
  succeeds (Mmp.call_gate mcpu ~pc:0x2000 ~addr:0x2000);
  succeeds (Mmp.return_gate mcpu ~pc:0x2004);
  Alcotest.(check int) "MMP round trip = 2 pipeline flushes" 2
    mcpu.Mmp.pipeline_flushes

let test_table1_cost_orderings () =
  let rows = Archcmp.table ~bytes:4096 in
  let cost arch =
    let r = List.find (fun r -> r.Archcmp.row_arch = arch) rows in
    (r.Archcmp.switch_cost, r.Archcmp.data_cost)
  in
  let s_conv, d_conv = cost Archcmp.Conventional in
  let s_cheri, d_cheri = cost Archcmp.Cheri in
  let s_mmp, d_mmp = cost Archcmp.Mmp in
  let s_codoms, d_codoms = cost Archcmp.Codoms in
  (* Switch cost: CODOMs < MMP < syscall round trips < CHERI — CHERI's
     sealed-capability crossings take two precise exceptions, the most
     expensive mechanism in the comparison. *)
  Alcotest.(check bool) "codoms switch cheapest" true (s_codoms < s_mmp);
  Alcotest.(check bool) "mmp cheaper than syscalls" true (s_mmp < s_conv);
  Alcotest.(check bool) "syscalls cheaper than cheri exceptions" true
    (s_conv < s_cheri);
  (* 4 KiB data: capability setup beats table rewrites beats memcpy. *)
  Alcotest.(check (float 1e-9)) "codoms = cheri on data" d_cheri d_codoms;
  Alcotest.(check bool) "capability setup beats table writes" true
    (d_codoms < d_mmp);
  Alcotest.(check bool) "table writes beat cross-space memcpy" true
    (d_mmp < d_conv);
  (* The model's stated primitives match the miniatures' mechanics. *)
  Alcotest.(check (float 1e-9)) "cheri switch = 2 exceptions"
    (2. *. Archcmp.exception_cost) s_cheri;
  Alcotest.(check (float 1e-9)) "mmp switch = 2 flushes"
    (2. *. Archcmp.pipeline_flush) s_mmp

let suites =
  [
    ( "conformance",
      [
        Alcotest.test_case "scenario corpus, documented outcomes" `Quick
          test_corpus;
        Alcotest.test_case "models agree except documented deviations" `Quick
          test_models_agree_except_documented;
        Alcotest.test_case "uniform fault (kind, pc) across backends" `Quick
          test_uniform_fault_facts;
        Alcotest.test_case "crossing cost mechanisms" `Quick
          test_crossing_cost_mechanisms;
        Alcotest.test_case "table 1 cost orderings" `Quick
          test_table1_cost_orderings;
      ] );
  ]
