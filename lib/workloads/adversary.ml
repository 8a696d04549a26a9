(* Adversarial scenario corpus: hostile-domain programs attacking the
   isolation mechanisms, with per-backend adapters and deterministic
   outcome digests.

   Every attack is a small deterministic program (or API-call sequence)
   that tries to break an isolation invariant: forging or replaying
   capabilities, racing APL revocations against in-flight crossings,
   misusing proxies (re-entry, wrong-signature entry, return-capability
   leakage), touching out-of-domain memory, and over/underflowing the
   DCS.  Each scenario pins the precise fault the strict machine must
   raise — kind AND faulting pc — and the cross-backend subset pins the
   *same* canonical (kind, pc) on the CODOMs machine, the CHERI
   miniature and the MMP miniature, so the cost-of-isolation comparison
   measures mechanisms, not modelling accidents.

   Outcomes fold into a backend-neutral digest (kind code + faulting pc
   per scenario, via a fresh Trace accumulator): under one posture the
   three backends must produce byte-identical digests over the
   cross-backend subset, and the CODOMs sweep must digest identically
   on the compiled path and the reference stepper.  The CODOMs sweep
   runs all attacks on ONE shared machine, rewriting the attack program
   in place between scenarios and revoking/re-granting APL entries as
   it goes — deliberately hostile to stale superblock translations. *)

module Machine = Dipc_hw.Machine
module Memory = Dipc_hw.Memory
module Page_table = Dipc_hw.Page_table
module Apl = Dipc_hw.Apl
module Isa = Dipc_hw.Isa
module Layout = Dipc_hw.Layout
module Perm = Dipc_hw.Perm
module Fault = Dipc_hw.Fault
module Minicheri = Dipc_hw.Minicheri
module Minimmp = Dipc_hw.Minimmp
module Trace = Dipc_sim.Trace
module Annot = Dipc_core.Annot
module Call = Dipc_core.Call
module Resolver = Dipc_core.Resolver
module Scenario = Dipc_core.Scenario
module System = Dipc_core.System
module Types = Dipc_core.Types

type backend = Codoms | Minicheri_b | Minimmp_b

let all_backends = [ Codoms; Minicheri_b; Minimmp_b ]

let backend_name = function
  | Codoms -> "codoms"
  | Minicheri_b -> "minicheri"
  | Minimmp_b -> "minimmp"

(* The attack corpus.  The first group is expressible on all three
   backends (same canonical fault kind and pc); the second is specific
   to the CODOMs machine's mechanisms. *)
type attack =
  | Benign (* legal cross-domain round trip: the clean-load baseline *)
  | Oob_load (* load from a domain nothing grants *)
  | Oob_store (* store to a domain nothing grants *)
  | Bad_crossing (* jump into a domain without call rights *)
  | Misaligned_entry (* call-permission entry at a misaligned address *)
  | Return_underflow (* pop a crossing that never happened *)
  | Forged_cap (* mint/replay a capability without authority *)
  | Use_after_revoke (* exercise authority after its revocation *)
  (* CODOMs-only *)
  | Exec_jump (* jump to a readable but non-executable page *)
  | Overderive (* CapAplDerive beyond the domain's APL rights *)
  | Priv_escalation (* privileged instruction from an unprivileged page *)
  | Cap_storage_write (* CapStore to a regular (non-cap-storage) page *)
  | Dcs_overflow (* push past the DCS capacity *)
  | Revoke_inflight (* APL revocation storm racing warm crossings *)
  | Retcap_leak (* use a callee-frame capability after its frame died *)

let attack_name = function
  | Benign -> "benign"
  | Oob_load -> "oob-load"
  | Oob_store -> "oob-store"
  | Bad_crossing -> "bad-crossing"
  | Misaligned_entry -> "misaligned-entry"
  | Return_underflow -> "return-underflow"
  | Forged_cap -> "forged-cap"
  | Use_after_revoke -> "use-after-revoke"
  | Exec_jump -> "exec-jump"
  | Overderive -> "overderive"
  | Priv_escalation -> "priv-escalation"
  | Cap_storage_write -> "cap-storage-write"
  | Dcs_overflow -> "dcs-overflow"
  | Revoke_inflight -> "revoke-inflight"
  | Retcap_leak -> "retcap-leak"

let cross_attacks =
  [
    Benign;
    Oob_load;
    Oob_store;
    Bad_crossing;
    Misaligned_entry;
    Return_underflow;
    Forged_cap;
    Use_after_revoke;
  ]

let machine_attacks =
  [
    Exec_jump;
    Overderive;
    Priv_escalation;
    Cap_storage_write;
    Dcs_overflow;
    Revoke_inflight;
    Retcap_leak;
  ]

type outcome =
  | Ran of int (* completed; payload = posture-downgraded denial count *)
  | Faulted of Fault.t
  | Refused of string (* API-level denial before any code ran *)

(* --- the shared CODOMs universe --- *)

(* Fixed addresses (mirroring the superblock test universe, plus two
   hostile pages).  All attack programs load at [code0], so the faulting
   pcs below are stable canonical constants. *)
let code0 = 0x100000 (* 2 executable pages, tag a *)

let callee = 0x110000 (* tag b: Addi; Ret at the aligned entry *)

let callee2 = callee + Layout.entry_align (* tag b: derive-and-return *)

let hermit = 0x120000 (* executable page of tag d: no APL reaches it *)

let data = 0x200000 (* tag c; a owns it *)

let secret = 0x210000 (* data page of tag d: no APL reaches it *)

let stack = 0x300000 (* tag a *)

let ib = Isa.instr_bytes

(* Expected (fault kind, canonical faulting pc) under the Strict
   posture; [None] for the benign baseline.  Payloads of Cap_storage /
   Dcs_bounds / No_permission are representative — assertions compare
   [Fault.kind_code], which drops them. *)
let expect = function
  | Benign -> None
  | Oob_load -> Some (Fault.No_permission Perm.Read, code0 + ib)
  | Oob_store -> Some (Fault.No_permission Perm.Write, code0 + ib)
  | Bad_crossing -> Some (Fault.No_permission Perm.Call, hermit)
  | Misaligned_entry -> Some (Fault.Not_entry_point, callee + ib)
  | Return_underflow -> Some (Fault.Dcs_bounds "underflow", code0)
  | Forged_cap -> Some (Fault.Cap_invalid, code0 + (6 * ib))
  | Use_after_revoke -> Some (Fault.No_permission Perm.Read, code0 + (2 * ib))
  | Exec_jump -> Some (Fault.Exec_violation, data)
  | Overderive -> Some (Fault.No_permission Perm.Read, code0 + (2 * ib))
  | Priv_escalation -> Some (Fault.Privilege_required, code0)
  | Cap_storage_write -> Some (Fault.Cap_storage "regular page", code0 + (3 * ib))
  | Dcs_overflow -> Some (Fault.Dcs_bounds "overflow", code0 + (5 * ib))
  | Revoke_inflight -> Some (Fault.No_permission Perm.Call, callee)
  | Retcap_leak -> Some (Fault.Cap_invalid, code0 + (3 * ib))

(* Syscall numbers the attack programs use to drive the "kernel" side of
   a race from inside the program. *)
let sys_revoke_data = 1 (* revoke a -> c mid-run *)

let sys_storm = 2 (* revoke + re-grant a -> b (APL generation churn) *)

let sys_revoke_callee = 3 (* revoke a -> b for good *)

(* The attack program bodies.  Positions matter: [expect] above indexes
   into these instruction lists. *)
let program = function
  | Benign ->
      [
        Isa.Const (1, data);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Read);
        Isa.CapPush 0;
        Isa.CapPop 0;
        Isa.Call callee;
        Isa.Const (3, 0);
        Isa.CapAsync (1, 0, 3);
        Isa.Store (1, 0, 2);
        Isa.Load (4, 1, 0);
        Isa.Halt;
      ]
  | Oob_load -> [ Isa.Const (1, secret); Isa.Load (2, 1, 0); Isa.Halt ]
  | Oob_store -> [ Isa.Const (1, secret); Isa.Store (1, 0, 2); Isa.Halt ]
  | Bad_crossing -> [ Isa.Jmp hermit; Isa.Halt ]
  | Misaligned_entry -> [ Isa.Call (callee + ib); Isa.Halt ]
  | Return_underflow -> [ Isa.CapPop 0; Isa.Halt ]
  | Forged_cap ->
      (* Mint a legal async capability, revoke its counter, then replay
         it: the CapPush validity check must reject the stale stamp. *)
      [
        Isa.Const (1, data);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Read);
        Isa.Const (3, 0);
        Isa.CapAsync (1, 0, 3);
        Isa.CapRevoke 3;
        Isa.CapPush 1;
        Isa.Halt;
      ]
  | Use_after_revoke ->
      [ Isa.Const (1, data); Isa.Syscall sys_revoke_data; Isa.Load (2, 1, 0); Isa.Halt ]
  | Exec_jump -> [ Isa.Jmp data ]
  | Overderive ->
      [
        Isa.Const (1, secret);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Read);
        Isa.Halt;
      ]
  | Priv_escalation -> [ Isa.RdTp 2; Isa.Halt ]
  | Cap_storage_write ->
      [
        Isa.Const (1, data);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Read);
        Isa.CapStore (1, 0, 0);
        Isa.Halt;
      ]
  | Dcs_overflow ->
      [
        Isa.Const (1, data);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Read);
        Isa.CapPush 0;
        Isa.CapPush 0;
        Isa.CapPush 0;
        Isa.Halt;
      ]
  | Revoke_inflight ->
      (* Storm tick (revoke + re-grant) keeps the first crossing legal
         while churning APL generations under warm translations; the
         final revoke races the second in-flight crossing. *)
      [
        Isa.Syscall sys_storm;
        Isa.Call callee;
        Isa.Syscall sys_revoke_callee;
        Isa.Call callee;
        Isa.Halt;
      ]
  | Retcap_leak ->
      (* The callee derives a synchronous capability in its own frame
         and returns; the caller then tries to spill the leaked register
         — the dead frame's epoch must invalidate it. *)
      [
        Isa.Const (1, stack);
        Isa.Const (2, 64);
        Isa.Call callee2;
        Isa.CapPush 2;
        Isa.Halt;
      ]

(* The DCS-overflow program needs a deliberately tiny stack. *)
let dcs_capacity_of = function Dcs_overflow -> Some 2 | _ -> None

type universe = { m : Machine.t; tag_a : int; tag_b : int; tag_c : int; tag_d : int }

let make_universe ?posture ~reference () =
  let m = Machine.create () in
  Machine.set_reference m reference;
  Option.iter (Machine.set_posture m) posture;
  let tag_a = Apl.fresh_tag m.Machine.apl in
  let tag_b = Apl.fresh_tag m.Machine.apl in
  let tag_c = Apl.fresh_tag m.Machine.apl in
  let tag_d = Apl.fresh_tag m.Machine.apl in
  Page_table.map m.Machine.page_table ~addr:code0 ~count:2 ~tag:tag_a
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:callee ~count:1 ~tag:tag_b
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:hermit ~count:1 ~tag:tag_d
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:data ~count:1 ~tag:tag_c ();
  Page_table.map m.Machine.page_table ~addr:secret ~count:1 ~tag:tag_d ();
  Page_table.map m.Machine.page_table ~addr:stack ~count:1 ~tag:tag_a ();
  ignore
    (Memory.place_code m.Machine.mem ~addr:callee [ Isa.Addi (2, 2, 7); Isa.Ret ]);
  ignore
    (Memory.place_code m.Machine.mem ~addr:callee2
       [ Isa.CapAplDerive (2, 1, 2, Perm.Read); Isa.Ret ]);
  ignore (Memory.place_code m.Machine.mem ~addr:hermit [ Isa.Halt ]);
  let u = { m; tag_a; tag_b; tag_c; tag_d } in
  Machine.set_syscall_handler m (fun _ctx n ->
      if n = sys_revoke_data then Apl.revoke m.Machine.apl ~src:tag_a ~dst:tag_c
      else if n = sys_storm then begin
        Apl.revoke m.Machine.apl ~src:tag_a ~dst:tag_b;
        Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Perm.Call
      end
      else if n = sys_revoke_callee then
        Apl.revoke m.Machine.apl ~src:tag_a ~dst:tag_b);
  u

(* Restore the canonical grants an earlier attack may have revoked (an
   APL generation bump in itself — more churn for warm superblocks). *)
let regrant u =
  Apl.grant u.m.Machine.apl ~src:u.tag_a ~dst:u.tag_b Perm.Call;
  Apl.grant u.m.Machine.apl ~src:u.tag_b ~dst:u.tag_a Perm.Read;
  Apl.grant u.m.Machine.apl ~src:u.tag_a ~dst:u.tag_c Perm.Owner

(* Run one attack on the shared universe: rewrite the program in place
   (stale translations of the previous attack must not leak through),
   re-grant the APL, and execute on a fresh context. *)
let run_codoms u attack =
  regrant u;
  ignore (Memory.place_code u.m.Machine.mem ~addr:code0 (program attack));
  let ctx =
    Machine.new_ctx ?dcs_capacity:(dcs_capacity_of attack) u.m ~pc:code0
      ~sp_value:(stack + Layout.page_size)
  in
  let audited0 = u.m.Machine.audited_faults in
  let outcome =
    match Machine.run ~fuel:100_000 u.m ctx with
    | () -> Ran (u.m.Machine.audited_faults - audited0)
    | exception Fault.Fault f -> Faulted f
  in
  (outcome, ctx.Machine.cost)

(* --- miniature adapters ---

   Each adapter expresses the cross-backend attacks through its model's
   own mechanism, passing the canonical pc so a fault carries the same
   (kind, pc) as the CODOMs machine.  Modelled cost comes from each
   model's own counters. *)

let seal_otype = 101

let cheri_run ?posture attack =
  let authority = Minicheri.cap ~base:100 ~len:10 ~perm:Minicheri.Data in
  let code_a = Minicheri.cap ~base:code0 ~len:0x20000 ~perm:Minicheri.Exec in
  let data_a = Minicheri.cap ~base:stack ~len:0x1000 ~perm:Minicheri.Data in
  let code_b = Minicheri.cap ~base:callee ~len:0x1000 ~perm:Minicheri.Exec in
  let data_b = Minicheri.cap ~base:data ~len:0x1000 ~perm:Minicheri.Data in
  let cpu = Minicheri.cpu ~pcc:code_a ~idc:data_a in
  Option.iter (fun p -> cpu.Minicheri.posture <- p) posture;
  let legal_domain () =
    match
      Minicheri.make_domain ~authority ~otype:seal_otype ~code:code_b ~data:data_b
    with
    | Ok d -> d
    | Error e -> failwith e
  in
  let outcome = function
    | Ok () -> Ran cpu.Minicheri.audited
    | Error f -> Faulted f
  in
  let o =
    match attack with
    | Benign ->
        let d = legal_domain () in
        outcome
          (match Minicheri.ccall_at cpu ~pc:callee d with
          | Error _ as e -> e
          | Ok () -> Minicheri.creturn_at cpu ~pc:(code0 + ib))
    | Oob_load ->
        outcome
          (Minicheri.access_at cpu cpu.Minicheri.idc ~pc:(code0 + ib)
             ~addr:secret ~perm:Perm.Read)
    | Oob_store ->
        outcome
          (Minicheri.access_at cpu cpu.Minicheri.idc ~pc:(code0 + ib)
             ~addr:secret ~perm:Perm.Write)
    | Bad_crossing ->
        (* A descriptor pair sealed under two different otypes: a forged
           crossing the CCall type check must reject. *)
        let seal otype c =
          match Minicheri.seal ~authority ~otype c with
          | Ok c -> c
          | Error e -> failwith e
        in
        let d =
          {
            Minicheri.d_code = seal seal_otype code_b;
            d_data = seal (seal_otype + 1) data_b;
            d_otype = seal_otype;
          }
        in
        outcome (Minicheri.ccall_at cpu ~pc:hermit d)
    | Misaligned_entry ->
        (* Unsealed operands are not a legal entry descriptor. *)
        let d =
          { Minicheri.d_code = code_b; d_data = data_b; d_otype = seal_otype }
        in
        outcome (Minicheri.ccall_at cpu ~pc:(callee + ib) d)
    | Return_underflow -> outcome (Minicheri.creturn_at cpu ~pc:code0)
    | Forged_cap ->
        (* Seal under an authority that does not cover the otype. *)
        let bad_authority = Minicheri.cap ~base:0 ~len:1 ~perm:Minicheri.Data in
        outcome
          (match
             Minicheri.seal_at ~authority:bad_authority ~otype:seal_otype
               ~pc:(code0 + (6 * ib)) data_b
           with
          | Ok _ -> Ok ()
          | Error f -> Error f)
    | Use_after_revoke ->
        (* A sealed capability confers no authority: the CHERI image of
           exercising revoked rights. *)
        let sealed =
          match Minicheri.seal ~authority ~otype:seal_otype data_b with
          | Ok c -> c
          | Error e -> failwith e
        in
        outcome
          (Minicheri.access_at cpu sealed ~pc:(code0 + (2 * ib)) ~addr:data
             ~perm:Perm.Read)
    | Exec_jump | Overderive | Priv_escalation | Cap_storage_write
    | Dcs_overflow | Revoke_inflight | Retcap_leak ->
        Refused "not expressible on minicheri"
  in
  (o, float_of_int cpu.Minicheri.exceptions *. Minicheri.crossing_cost_ns)

let mmp_run ?posture attack =
  let pd_a = Minimmp.pd ~id:1 in
  let pd_b = Minimmp.pd ~id:2 in
  Minimmp.grant pd_a ~base:code0 ~len:0x20000 ~perm:Minimmp.Execute_read;
  Minimmp.grant pd_a ~base:stack ~len:0x1000 ~perm:Minimmp.Read_write;
  Minimmp.grant pd_b ~base:callee ~len:0x1000 ~perm:Minimmp.Execute_read;
  let cpu = Minimmp.cpu ~initial:pd_a in
  Option.iter (fun p -> cpu.Minimmp.posture <- p) posture;
  Minimmp.add_domain cpu pd_b;
  Minimmp.add_gate cpu ~addr:callee ~from_pd:1 ~to_pd:2;
  let outcome = function
    | Ok () -> Ran cpu.Minimmp.audited
    | Error f -> Faulted f
  in
  let o =
    match attack with
    | Benign ->
        outcome
          (match Minimmp.call_gate_at cpu ~pc:callee ~addr:callee with
          | Error _ as e -> e
          | Ok () -> Minimmp.return_gate_at cpu ~pc:(code0 + ib))
    | Oob_load ->
        outcome
          (Minimmp.access_at cpu ~pc:(code0 + ib) ~addr:secret
             ~needed:Minimmp.Read_only ~perm:Perm.Read)
    | Oob_store ->
        outcome
          (Minimmp.access_at cpu ~pc:(code0 + ib) ~addr:secret
             ~needed:Minimmp.Read_write ~perm:Perm.Write)
    | Bad_crossing ->
        (* A gate whose declared source is some other domain. *)
        Minimmp.add_gate cpu ~addr:hermit ~from_pd:99 ~to_pd:2;
        outcome (Minimmp.call_gate_at cpu ~pc:hermit ~addr:hermit)
    | Misaligned_entry ->
        (* Not a gate at all. *)
        outcome (Minimmp.call_gate_at cpu ~pc:(callee + ib) ~addr:(callee + ib))
    | Return_underflow -> outcome (Minimmp.return_gate_at cpu ~pc:code0)
    | Forged_cap ->
        (* A gate into a domain that does not exist: a dangling
           descriptor. *)
        let addr = code0 + (6 * ib) in
        Minimmp.add_gate cpu ~addr ~from_pd:1 ~to_pd:77;
        outcome (Minimmp.call_gate_at cpu ~pc:addr ~addr)
    | Use_after_revoke ->
        Minimmp.grant pd_a ~base:data ~len:0x1000 ~perm:Minimmp.Read_only;
        Minimmp.revoke pd_a ~base:data ~len:0x1000;
        outcome
          (Minimmp.access_at cpu ~pc:(code0 + (2 * ib)) ~addr:data
             ~needed:Minimmp.Read_only ~perm:Perm.Read)
    | Exec_jump | Overderive | Priv_escalation | Cap_storage_write
    | Dcs_overflow | Revoke_inflight | Retcap_leak ->
        Refused "not expressible on minimmp"
  in
  let table_writes = pd_a.Minimmp.table_writes + pd_b.Minimmp.table_writes in
  ( o,
    (float_of_int cpu.Minimmp.pipeline_flushes *. Minimmp.switch_cost_ns)
    +. (float_of_int table_writes *. Minimmp.table_write_cost_ns) )

(* --- sweeps and digests --- *)

(* Run [attacks] in order on one backend.  The CODOMs sweep shares one
   machine across the whole sequence (translation churn is the point);
   the miniatures build fresh model state per attack.  Returns the
   outcomes and the total modelled cost in simulated ns. *)
let sweep ?(reference = false) ?posture backend attacks =
  let collect run =
    let cost = ref 0.0 in
    let outs =
      List.map
        (fun a ->
          let o, c = run a in
          cost := !cost +. c;
          o)
        attacks
    in
    (outs, !cost)
  in
  match backend with
  | Codoms ->
      let u = make_universe ?posture ~reference () in
      collect (run_codoms u)
  | Minicheri_b -> collect (cheri_run ?posture)
  | Minimmp_b -> collect (mmp_run ?posture)

let run_one ?(reference = false) ?posture backend attack =
  match sweep ~reference ?posture backend [ attack ] with
  | [ o ], _ -> o
  | _ -> assert false

(* Fold an outcome sequence into a replay digest through a fresh Trace
   accumulator.  Only backend-neutral facts enter the fold — the fault's
   kind code and faulting pc, or the audited-denial count of a completed
   run — so equal digests across backends mean the *architectural*
   outcomes agree, and equal digests across the two interpreter paths
   mean the compiled path faulted identically. *)
let digest_outcomes outs =
  let tr = Trace.create ~capacity:256 () in
  List.iteri
    (fun i o ->
      let cpu, tag, arg =
        match o with
        | Faulted f -> (1, Fault.kind_code f.Fault.kind, f.Fault.pc)
        | Ran audited -> (0, -1, audited)
        | Refused s -> (2, -2, String.length s)
      in
      Trace.emit tr ~ts:(float_of_int i) ~cpu ~tid:i ~tag ~arg Trace.Fault)
    outs;
  Trace.digest_hex tr

(* --- the directed scenario corpus --- *)

type scenario = {
  s_attack : attack;
  s_name : string;
  s_backends : backend list;
  s_expect : (Fault.kind * int) option;
      (* fault kind + canonical faulting pc under Strict; None = runs *)
}

let corpus =
  List.map
    (fun a ->
      {
        s_attack = a;
        s_name = attack_name a;
        s_backends =
          (if List.mem a cross_attacks then all_backends else [ Codoms ]);
        s_expect = expect a;
      })
    (cross_attacks @ machine_attacks)

(* --- seeded random attack sequences --- *)

(* Deterministic LCG (Numerical Recipes constants) over the
   cross-backend corpus: the differential property and the bench matrix
   want reproducible hostile schedules without depending on a global
   RNG. *)
let random_attacks ~seed ~n =
  let pool = Array.of_list cross_attacks in
  let state = ref (seed land 0x3FFFFFFF) in
  List.init n (fun _ ->
      state := ((!state * 1664525) + 1013904223) land 0x3FFFFFFF;
      pool.(!state mod Array.length pool))

(* --- proxy misuse (dIPC system level, CODOMs only) --- *)

(* Re-entry: after one legitimate call, the attacker reads the caller
   stub to locate the proxy's entry point, then calls PAST it into the
   proxy body.  The crossing carries call permission only, so the
   misaligned target must fault [Not_entry_point] at that pc. *)
let proxy_reentry ?(reference = false) () =
  let s = Scenario.make () in
  let machine = System.machine s.Scenario.sys in
  Machine.set_reference machine reference;
  match Scenario.call s ~args:[ 1; 2 ] with
  | Error f -> (Faulted f, -1)
  | Ok _ -> (
      let mem = machine.Machine.mem in
      let rec find_call pc n =
        if n > 64 then None
        else
          match Memory.fetch mem pc with
          | Some (Isa.Call t) -> Some t
          | Some _ -> find_call (pc + ib) (n + 1)
          | None -> None
      in
      match find_call s.Scenario.stub 0 with
      | None -> (Refused "no proxy call in the caller stub", -1)
      | Some proxy_entry ->
          let target = proxy_entry + ib in
          let img = Annot.image s.Scenario.sys s.Scenario.caller in
          let fn =
            Annot.declare_function s.Scenario.sys img ~name:"reenter"
              [ Isa.Call target; Isa.Ret ]
          in
          let o =
            match Call.exec s.Scenario.sys s.Scenario.thread ~fn ~args:[] with
            | Ok _ -> Ran machine.Machine.audited_faults
            | Error f -> Faulted f
          in
          (o, target))

(* Wrong-signature entry: importing a symbol under a signature that
   disagrees with the published entry must be refused at proxy-request
   time (P4) — no code ever runs. *)
let wrong_signature () =
  let sys = System.create () in
  let resolver = Resolver.create () in
  let callee_p = System.create_process sys ~name:"callee" in
  let caller_p = System.create_process sys ~name:"caller" in
  let callee_img = Annot.image sys callee_p in
  ignore
    (Annot.declare_function sys callee_img ~name:"fn" Scenario.default_fn);
  let handle =
    Annot.declare_entries sys callee_img ~name:"svc"
      [ ("fn", Types.signature ~args:2 ~rets:1 (), Types.props_low) ]
  in
  Resolver.publish resolver ~path:"/run/svc.sock" handle;
  let caller_img = Annot.image sys caller_p in
  let sym =
    Annot.import caller_img ~path:"/run/svc.sock"
      ~sig_:(Types.signature ~args:3 ~rets:1 ())
      ~props:Types.props_low ()
  in
  match Annot.resolve sys resolver sym with
  | (_ : int) -> Ran 0
  | exception System.Denied msg -> Refused msg
