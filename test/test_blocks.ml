(* Superblock compiler vs. the reference stepper.

   [Machine.run] dispatches through chained superblocks with
   speculative continuations, a return-address stack on Ret and
   monomorphic inline caches on Jmpr/Callr; these tests pin the
   contract that the compiled path is *observationally identical* to
   stepping: same registers, memory, instret, cost, Breakdown totals
   (float-sum order included), same faults at the same pcs, same
   Out_of_fuel truncation points, and same replay digests — plus
   directed tests that every generation guard (code rewrite, page
   remap, APL revoke) invalidates stale translations, that an APL-cache
   flush is observed live, that every side-exit class (speculation
   miss, in-place retag, fuel exhaustion at a junction) falls back to
   the interpreter without divergence, and that the predictors handle
   RAS misprediction, RAS over/underflow and IC invalidation on retag
   with hits + misses = dispatches. *)

module Machine = Dipc_hw.Machine
module Memory = Dipc_hw.Memory
module Page_table = Dipc_hw.Page_table
module Apl = Dipc_hw.Apl
module Apl_cache = Dipc_hw.Apl_cache
module Isa = Dipc_hw.Isa
module Layout = Dipc_hw.Layout
module Perm = Dipc_hw.Perm
module Fault = Dipc_hw.Fault
module Breakdown = Dipc_sim.Breakdown
module Trace = Dipc_sim.Trace

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

(* The two dispatch paths under differential test: the reference
   stepper and the compiled superblock path. *)
type mode = Reference | Superblocks

(* --- a small fixed universe for random programs --- *)

let code0 = 0x100000 (* 2 executable pages, tag a *)

let callee = 0x110000 (* 1 executable page, tag b: Addi; Ret *)

let island = 0x120000 (* 1 executable page, tag d: no grants touch it *)

let data = 0x200000 (* 1 rw page, tag a *)

let stack = 0x300000 (* 1 rw page, tag a *)

(* Fixed routines on the second code page (tag a), clear of the
   syscall-0 rewrite window at +2048: a bounded recursive call tower
   (counts r9 up to r8, one Ret per level — deep RAS exercise), a
   return-target twister (overwrites its own return slot with r6
   before Ret — a guaranteed RAS mispredict), and a second leaf for
   polymorphic indirect-call sites. *)
let tower = code0 + Layout.page_size + 256

let twist = code0 + Layout.page_size + 512

let leaf = code0 + Layout.page_size + 640

type universe = {
  m : Machine.t;
  tag_a : int;
  tag_b : int;
  tag_b2 : int; (* spare callee identity for in-place retag tests *)
  tag_c : int;
  tag_d : int; (* the island's unreachable tag *)
}

(* Build the universe and load [prog] at [code0].  [mode] selects the
   dispatch mode under test.  The default syscall handler exercises
   mid-run invalidation from *inside* a run: syscall 0 rewrites code on
   the second code page (bumps the code generation under any warm
   translation) and syscall 1 revokes a->b (bumps the APL generation
   and makes later calls to [callee] fault) — both deterministic, so
   the differential properties cover them like any other instruction. *)
let setup ~mode prog =
  let m = Machine.create () in
  Machine.set_reference m (mode = Reference);
  let tag_a = Apl.fresh_tag m.Machine.apl in
  let tag_b = Apl.fresh_tag m.Machine.apl in
  let tag_b2 = Apl.fresh_tag m.Machine.apl in
  let tag_c = Apl.fresh_tag m.Machine.apl in
  let tag_d = Apl.fresh_tag m.Machine.apl in
  Page_table.map m.Machine.page_table ~addr:code0 ~count:2 ~tag:tag_a
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:callee ~count:1 ~tag:tag_b
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:island ~count:1 ~tag:tag_d
    ~writable:false ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:data ~count:1 ~tag:tag_c ();
  Page_table.map m.Machine.page_table ~addr:stack ~count:1 ~tag:tag_a ();
  (* a may call b's (aligned) entry points; b may return anywhere into a
     and read a's stack.  The spare identity b2 gets the same grants so
     an in-place retag of the callee page stays executable. *)
  Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b Perm.Call;
  Apl.grant m.Machine.apl ~src:tag_b ~dst:tag_a Perm.Read;
  Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_b2 Perm.Call;
  Apl.grant m.Machine.apl ~src:tag_b2 ~dst:tag_a Perm.Read;
  (* the data page is its own domain, reachable from a but not from b *)
  Apl.grant m.Machine.apl ~src:tag_a ~dst:tag_c Perm.Owner;
  Machine.set_syscall_handler m (fun _ctx n ->
      if n mod 2 = 0 then
        ignore
          (Memory.place_code m.Machine.mem
             ~addr:(code0 + Layout.page_size + 2048)
             [ Isa.Nop; Isa.Halt ])
      else Apl.revoke m.Machine.apl ~src:tag_a ~dst:tag_b);
  ignore (Memory.place_code m.Machine.mem ~addr:code0 prog);
  ignore
    (Memory.place_code m.Machine.mem ~addr:callee [ Isa.Addi (2, 2, 7); Isa.Ret ]);
  ignore (Memory.place_code m.Machine.mem ~addr:island [ Isa.Halt ]);
  ignore
    (Memory.place_code m.Machine.mem ~addr:tower
       [
         Isa.Bge (9, 8, tower + (3 * Isa.instr_bytes));
         Isa.Addi (9, 9, 1);
         Isa.Call tower;
         Isa.Ret;
       ]);
  ignore
    (Memory.place_code m.Machine.mem ~addr:twist
       [ Isa.Store (Isa.sp, 0, 6); Isa.Ret ]);
  ignore
    (Memory.place_code m.Machine.mem ~addr:leaf [ Isa.Addi (3, 3, 50); Isa.Ret ]);
  { m; tag_a; tag_b; tag_b2; tag_c; tag_d }

let fresh_ctx u =
  Machine.new_ctx u.m ~pc:code0 ~sp_value:(stack + Layout.page_size)

(* --- random programs --- *)

(* Each abstract op is one instruction; branch targets only point
   forward (to a later slot or the trailing Halt), so every program
   terminates.  Faulting programs are kept: faults must be identical on
   all paths.  Registers 6..10 are preset by the preamble (Halt
   address, callee entry, tower bound, tower counter, polymorphic
   selector) so the indirect and recursive ops always target valid
   code.  The superblock compiler chains Jmpr/Callr through inline
   caches and Ret through the return-address stack, so these ops now
   stress the predictors as well as block boundaries: the tower runs a
   bounded recursion (deep push/pop sequences), [twist] rewrites its
   own return target mid-call (a forced mispredict), and the selector
   flips Callr 10 between two leaves in different domains. *)
let instr_of ~i ~n (sel, a, b, c) =
  let a = abs a and b = abs b and c = abs c in
  let r k = 2 + (k mod 4) in
  let fwd k = code0 + (Isa.instr_bytes * (i + 1 + (k mod (n - i)))) in
  match sel mod 24 with
  | 0 -> Isa.Const (r a, b)
  | 1 -> Isa.Mov (r a, r b)
  | 2 -> Isa.Add (r a, r b, r c)
  | 3 -> Isa.Addi (r a, r b, c mod 256)
  | 4 -> Isa.Sub (r a, r b, r c)
  | 5 -> Isa.Mul (r a, r b, r c)
  | 6 -> Isa.Shli (r a, r b, b mod 8)
  | 7 | 8 -> Isa.Load (r a, 1, 8 * (b mod 64))
  | 9 | 10 -> Isa.Store (1, 8 * (b mod 64), r a)
  | 11 -> Isa.Beq (r a, r b, fwd c)
  | 12 -> Isa.Blt (r a, r b, fwd c)
  | 13 -> Isa.Beqz (r a, fwd c)
  | 14 -> Isa.Jmp (fwd c)
  | 15 -> Isa.Call callee
  | 16 -> Isa.Jmpr 6 (* indirect jump to the trailing Halt *)
  | 17 -> Isa.Callr 7 (* indirect call to the callee entry *)
  | 18 -> Isa.Syscall (b mod 2) (* mid-run rewrite / APL revoke *)
  | 19 -> Isa.Call tower (* recursive tower: depth = r8 - r9 *)
  | 20 -> Isa.Const (9, b mod 8) (* rewind the tower counter *)
  | 21 -> Isa.Call twist (* returns to r6 (Halt), not the call site *)
  | 22 -> Isa.Callr 10 (* polymorphic indirect call (see 23) *)
  | 23 -> Isa.Const (10, if b mod 2 = 0 then callee else leaf)
  | _ -> Isa.Nop

let prog_of_ops ops =
  let n = List.length ops in
  let slots = n + 6 (* preamble *) + 1 (* Halt *) in
  let halt_addr = code0 + (Isa.instr_bytes * (slots - 1)) in
  (* reg 1 = data-page base for every Load/Store; reg 6 = Halt address
     for Jmpr and the twist return target; reg 7 = callee entry for
     Callr; regs 8/9 = tower bound and counter; reg 10 = polymorphic
     Callr selector *)
  (Isa.Const (1, data) :: Isa.Const (6, halt_addr) :: Isa.Const (7, callee)
  :: Isa.Const (8, 6) :: Isa.Const (9, 0) :: Isa.Const (10, leaf)
  :: List.mapi (fun i op -> instr_of ~i:(i + 6) ~n:(slots - 1) op) ops)
  @ [ Isa.Halt ]

let ops_gen =
  QCheck.list_of_size QCheck.Gen.(5 -- 60)
    QCheck.(quad small_nat small_int small_int small_int)

(* --- observable state --- *)

type outcome = Done | Fault of Fault.t | Fuel

let run_outcome ?fuel u ctx =
  match Machine.run ?fuel u.m ctx with
  | () -> Done
  | exception Fault.Fault f -> Fault f
  | exception Machine.Out_of_fuel -> Fuel

(* Everything the fast paths could plausibly get wrong, in one
   comparable value.  Floats are compared exactly: bit-identical sums
   are part of the contract. *)
let observe u (ctx : Machine.ctx) outcome =
  (* data writes land in the low words of the data page; stack pushes in
     the top words of the stack page *)
  let words k = Array.init 64 (fun i -> Machine.peek_word u.m ~addr:(k + (8 * i))) in
  let stack_top =
    Array.init 64 (fun i ->
        Machine.peek_word u.m ~addr:(stack + Layout.page_size - (8 * (i + 1))))
  in
  ( outcome,
    Array.copy ctx.Machine.regs,
    ( ctx.Machine.pc,
      ctx.Machine.cur_tag,
      ctx.Machine.priv,
      ctx.Machine.depth,
      ctx.Machine.halted ),
    (ctx.Machine.instret, ctx.Machine.cost),
    Breakdown.to_list ctx.Machine.breakdown,
    (words data, stack_top) )

let run_one ~mode ?fuel prog =
  let u = setup ~mode prog in
  let ctx = fresh_ctx u in
  let outcome = run_outcome ?fuel u ctx in
  observe u ctx outcome

(* --- the differential properties --- *)

let prop_differential =
  QCheck.Test.make
    ~name:"superblocks == reference (random programs)" ~count:300
    QCheck.(pair ops_gen (frequency [ (4, always 100_000); (1, int_range 1 40) ]))
    (fun (ops, fuel) ->
      let prog = prog_of_ops ops in
      run_one ~mode:Superblocks ~fuel prog = run_one ~mode:Reference ~fuel prog)

let prop_differential_traced_digest =
  QCheck.Test.make
    ~name:"tracer forces the reference path: digests and state identical"
    ~count:60 ops_gen
    (fun ops ->
      let prog = prog_of_ops ops in
      let traced mode =
        let u = setup ~mode prog in
        let tr = Trace.create () in
        Machine.set_trace u.m tr;
        let ctx = fresh_ctx u in
        let outcome = run_outcome u ctx in
        (observe u ctx outcome, Trace.digest_hex tr)
      in
      let s_ref, d_ref = traced Reference and s_sb, d_sb = traced Superblocks in
      (* traced runs agree with each other and with the untraced
         superblock run *)
      s_ref = s_sb && d_ref = d_sb && s_ref = run_one ~mode:Superblocks prog)

let prop_self_modifying =
  QCheck.Test.make
    ~name:"place_code between runs invalidates stale blocks" ~count:100
    QCheck.(pair ops_gen ops_gen)
    (fun (ops1, ops2) ->
      let both mode =
        let u = setup ~mode (prog_of_ops ops1) in
        let c1 = fresh_ctx u in
        let o1 = run_outcome u c1 in
        let s1 = observe u c1 o1 in
        (* overwrite the code in place: run 2 must see only the new
           program even where the old one left warm translations *)
        ignore (Memory.place_code u.m.Machine.mem ~addr:code0 (prog_of_ops ops2));
        let c2 = fresh_ctx u in
        let o2 = run_outcome u c2 in
        (s1, observe u c2 o2)
      in
      both Superblocks = both Reference)

(* --- directed invalidation tests --- *)

(* Run [f] on both paths and check the compiled path against the
   reference result. *)
let check_all name f =
  Alcotest.(check bool) name true (f Superblocks = f Reference)

let test_code_rewrite () =
  let prog v =
    [ Isa.Const (2, v); Isa.Addi (2, 2, 1); Isa.Addi (2, 2, 1); Isa.Halt ]
  in
  let run mode =
    let u = setup ~mode (prog 10) in
    let c1 = fresh_ctx u in
    let (_ : outcome) = run_outcome u c1 in
    ignore (Memory.place_code u.m.Machine.mem ~addr:code0 (prog 100));
    let c2 = fresh_ctx u in
    let (_ : outcome) = run_outcome u c2 in
    (c1.Machine.regs.(2), c2.Machine.regs.(2))
  in
  (* the second run must execute the rewritten constants *)
  Alcotest.(check (pair int int)) "reference sees rewritten code" (12, 102)
    (run Reference);
  Alcotest.(check (pair int int)) "superblocks see rewritten code" (12, 102)
    (run Superblocks)

let test_page_remap () =
  let prog = [ Isa.Const (1, data); Isa.Load (2, 1, 0); Isa.Halt ] in
  let run mode =
    let u = setup ~mode prog in
    Memory.store_word u.m.Machine.mem data 77;
    let c1 = fresh_ctx u in
    let o1 = run_outcome u c1 in
    (* remap the code pages under a tag with no rights on the data page:
       the pt generation bump must force retranslation, and the Load now
       faults *)
    Page_table.unmap u.m.Machine.page_table ~addr:code0 ~count:2;
    Page_table.map u.m.Machine.page_table ~addr:code0 ~count:2 ~tag:u.tag_b
      ~writable:false ~executable:true ();
    let c2 = fresh_ctx u in
    let o2 = run_outcome u c2 in
    (o1, c1.Machine.regs.(2), o2)
  in
  let check name (o1, r2, o2) =
    Alcotest.(check bool) (name ^ ": first run completes") true (o1 = Done);
    Alcotest.(check int) (name ^ ": first run loads the word") 77 r2;
    match o2 with
    | Fault { Fault.kind = Fault.No_permission _; _ } -> ()
    | _ -> Alcotest.fail (name ^ ": remapped run must fault on the load")
  in
  check "superblocks" (run Superblocks);
  check_all "remap behaves identically on all paths" run

let test_apl_revoke_midrun () =
  (* the syscall handler revokes a->b mid-run: the Call that worked
     before the syscall must fault after it, identically on all paths *)
  let prog =
    [
      Isa.Const (1, data);
      Isa.Call callee;
      Isa.Syscall 1;
      Isa.Call callee;
      Isa.Halt;
    ]
  in
  let run mode =
    let u = setup ~mode prog in
    Machine.set_syscall_handler u.m (fun _ctx _n ->
        Apl.revoke u.m.Machine.apl ~src:u.tag_a ~dst:u.tag_b);
    let ctx = fresh_ctx u in
    let o = run_outcome u ctx in
    (o, ctx.Machine.regs.(2), ctx.Machine.instret)
  in
  (match run Superblocks with
  | Fault { Fault.kind = Fault.No_permission _; _ }, r2, _ ->
      Alcotest.(check int) "first call executed the callee" 7 r2
  | _ -> Alcotest.fail "revoked call must fault");
  check_all "APL revoke behaves identically on all paths" run

let test_apl_cache_flush_midrun () =
  let prog =
    [
      Isa.Const (2, 5);
      Isa.Syscall 0;
      Isa.Addi (2, 2, 1);
      Isa.Addi (2, 2, 1);
      Isa.Halt;
    ]
  in
  let run mode =
    let u = setup ~mode prog in
    Machine.set_syscall_handler u.m (fun ctx _n ->
        (* deliberate flush from inside the run: the compiled path
           must stay in lockstep with the reference stepper *)
        Apl_cache.reset ctx.Machine.apl_cache);
    let ctx = fresh_ctx u in
    let o = run_outcome u ctx in
    (o, ctx.Machine.regs.(2), ctx.Machine.cost)
  in
  (match run Superblocks with
  | Done, 7, _ -> ()
  | _ -> Alcotest.fail "flushed run must still complete with reg2 = 7");
  check_all "APL-cache flush behaves identically on all paths" run

let test_fuel_truncation () =
  (* a tight loop, fuel stops mid-body: the truncation instruction must
     match the reference exactly *)
  let loop = code0 + (3 * Isa.instr_bytes) in
  let prog =
    [
      Isa.Const (1, data);
      Isa.Const (2, 0);
      Isa.Const (3, 1000);
      Isa.Addi (2, 2, 1);
      Isa.Store (1, 0, 2);
      Isa.Load (4, 1, 0);
      Isa.Blt (2, 3, loop);
      Isa.Halt;
    ]
  in
  let run mode fuel =
    let u = setup ~mode prog in
    let ctx = fresh_ctx u in
    let o = run_outcome ~fuel u ctx in
    (o, ctx.Machine.pc, ctx.Machine.instret, ctx.Machine.cost)
  in
  for fuel = 1 to 60 do
    let (o, _, _, _) as reference = run Reference fuel in
    Alcotest.(check bool)
      (Printf.sprintf "fuel=%d truncates identically (superblocks)" fuel)
      true
      (run Superblocks fuel = reference);
    if fuel < 20 then
      Alcotest.(check bool) (Printf.sprintf "fuel=%d runs out" fuel) true (o = Fuel)
  done

let test_page_boundary () =
  (* straight-line code crossing an intra-domain page boundary: the
     translated body stops at the boundary, the superblock chains
     across it as a fall-through junction, and no domain crossing
     happens (same tag) *)
  let start = code0 + Layout.page_size - (4 * Isa.instr_bytes) in
  let run mode =
    let u = setup ~mode [ Isa.Halt ] in
    ignore
      (Memory.place_code u.m.Machine.mem ~addr:start
         [
           Isa.Const (2, 1);
           Isa.Addi (2, 2, 10);
           Isa.Addi (2, 2, 100);
           Isa.Addi (2, 2, 1000);
           (* --- page boundary --- *)
           Isa.Addi (2, 2, 10000);
           Isa.Addi (2, 2, 100000);
           Isa.Halt;
         ]);
    let ctx = Machine.new_ctx u.m ~pc:start ~sp_value:(stack + Layout.page_size) in
    let o = run_outcome u ctx in
    (o, ctx.Machine.regs.(2), ctx.Machine.instret)
  in
  Alcotest.(check bool) "crosses the boundary" true
    (run Superblocks = (Done, 111111, 7));
  check_all "boundary crossing identical on all paths" run

(* --- directed superblock side-exit tests --- *)

(* Forward conditional branches are speculated fall-through; taking one
   is a speculation miss, so the superblock must side-exit to the
   dispatcher and resume at the real target with identical state. *)
let test_side_exit_speculation_miss () =
  let skip = code0 + (3 * Isa.instr_bytes) in
  let prog =
    [
      Isa.Const (2, 0);
      Isa.Beqz (2, skip); (* taken: speculated not-taken *)
      Isa.Addi (2, 2, 111); (* speculated but never executed *)
      Isa.Const (3, 9);
      Isa.Halt;
    ]
  in
  check_all "taken forward branch identical on all paths" (fun mode ->
      run_one ~mode prog);
  let u = setup ~mode:Superblocks prog in
  let ctx = fresh_ctx u in
  let before = u.m.Machine.ctr_side_exits in
  let o = run_outcome u ctx in
  Alcotest.(check bool) "run completes past the miss" true
    (o = Done && ctx.Machine.regs.(2) = 0 && ctx.Machine.regs.(3) = 9);
  Alcotest.(check bool) "speculation miss counted as a side exit" true
    (u.m.Machine.ctr_side_exits > before)

(* Syscall handler for the retag tests: swap the callee page between
   the two identities b and b2 in place — no generation moves, so only
   the live (tag, priv) re-checks can see it. *)
let retag_callee_on_syscall u =
  Machine.set_syscall_handler u.m (fun _ctx _n ->
      let page = Option.get (Page_table.find u.m.Machine.page_table callee) in
      let from_tag = page.Page_table.tag in
      let to_tag = if from_tag = u.tag_b then u.tag_b2 else u.tag_b in
      Page_table.retag u.m.Machine.page_table ~addr:callee ~count:1 ~from_tag
        ~to_tag)

(* In-place retag: [Page_table.retag] mutates the page record without
   bumping the page-table generation, so a warm superblock whose chain
   crosses onto the retagged page passes its entry guard but must catch
   the change at the junction's tag re-check and side-exit.  The spare
   identity b2 carries the same grants as b, so execution continues
   (now under b2) with state identical to the reference. *)
let test_side_exit_inplace_retag () =
  let loop = code0 + (3 * Isa.instr_bytes) in
  let prog =
    [
      Isa.Const (2, 0);
      Isa.Const (4, 0);
      Isa.Const (5, 2);
      Isa.Call callee; (* chained junction onto the callee page *)
      Isa.Syscall 3; (* retag callee page b -> b2 (handler below) *)
      Isa.Addi (4, 4, 1);
      Isa.Blt (4, 5, loop);
      Isa.Halt;
    ]
  in
  let run mode =
    let u = setup ~mode prog in
    retag_callee_on_syscall u;
    let ctx = fresh_ctx u in
    let o = run_outcome u ctx in
    (observe u ctx o, u.m.Machine.ctr_side_exits)
  in
  let (s_ref, _) = run Reference in
  let (s_sb, side_exits) = run Superblocks in
  Alcotest.(check bool) "retag identical on superblock path" true (s_sb = s_ref);
  (match s_ref with
  | Done, regs, _, _, _, _ ->
      Alcotest.(check int) "both loop iterations called the callee" 14 regs.(2)
  | _ -> Alcotest.fail "retagged run must complete");
  Alcotest.(check bool) "retag caught at a junction side exit" true
    (side_exits > 0)

(* Fuel exhausted exactly at a junction: the reference loop raises
   Out_of_fuel *before* the next fetch's transfer check, so the
   superblock must stop at the junction without running check_transfer
   — even when that check would fault.  The island page's tag has no
   grants at all: with one more unit of fuel the crossing faults, with
   exact fuel both paths report Out_of_fuel. *)
let test_fuel_at_junction () =
  let prog = [ Isa.Const (2, 1); Isa.Jmp island ] in
  let run mode fuel =
    let u = setup ~mode prog in
    let ctx = fresh_ctx u in
    let o = run_outcome ~fuel u ctx in
    (o, ctx.Machine.pc, ctx.Machine.instret, ctx.Machine.cost)
  in
  (* fuel 2: Const + Jmp consume it all; the crossing check must not run *)
  (match run Superblocks 2 with
  | Fuel, pc, 2, _ -> Alcotest.(check int) "stopped at the island edge" island pc
  | _ -> Alcotest.fail "exact fuel must stop before the transfer check");
  check_all "fuel at the junction identical on all paths" (fun mode -> run mode 2);
  (* fuel 3: the crossing check runs and faults on both paths *)
  (match run Superblocks 3 with
  | Fault { Fault.kind = Fault.No_permission _; _ }, _, _, _ -> ()
  | _ -> Alcotest.fail "one more unit of fuel must reach the faulting check");
  check_all "faulting crossing identical on all paths" (fun mode -> run mode 3)

(* The deterministic counters themselves: a warm re-dispatch hits the
   superblock cache, a run with misses records side exits, and the
   counters live on the machine (not the digest path). *)
let test_counters_sanity () =
  let prog = [ Isa.Const (2, 1); Isa.Addi (2, 2, 1); Isa.Halt ] in
  let u = setup ~mode:Superblocks prog in
  let c1 = fresh_ctx u in
  let (_ : outcome) = run_outcome u c1 in
  let xlate_after_first = u.m.Machine.ctr_sb_translations in
  let hits_after_first = u.m.Machine.ctr_sb_hits in
  Alcotest.(check bool) "first run translates" true (xlate_after_first > 0);
  let c2 = fresh_ctx u in
  let (_ : outcome) = run_outcome u c2 in
  Alcotest.(check int) "warm re-dispatch translates nothing more"
    xlate_after_first u.m.Machine.ctr_sb_translations;
  Alcotest.(check bool) "warm re-dispatch hits the cache" true
    (u.m.Machine.ctr_sb_hits > hits_after_first);
  Alcotest.(check bool) "block entries counted" true
    (u.m.Machine.ctr_block_entries > 0)

(* --- directed dynamic-transfer predictor tests (PR 10) --- *)

(* [twist] overwrites its own return slot with r6 before returning: the
   RAS predicted the call-site continuation, so the chained Ret must
   mispredict, side-exit with exact reference state, and resume at the
   rewritten target. *)
let test_ras_misprediction () =
  let alt = code0 + (3 * Isa.instr_bytes) in
  let prog =
    [
      Isa.Const (6, alt);
      Isa.Call twist; (* returns to alt, not the call site *)
      Isa.Addi (2, 2, 111); (* the predicted continuation: never runs *)
      Isa.Const (3, 9);
      Isa.Halt;
    ]
  in
  check_all "rewritten return target identical on all paths" (fun mode ->
      run_one ~mode prog);
  let u = setup ~mode:Superblocks prog in
  let ctx = fresh_ctx u in
  let o = run_outcome u ctx in
  Alcotest.(check bool) "run lands on the rewritten target" true
    (o = Done && ctx.Machine.regs.(2) = 0 && ctx.Machine.regs.(3) = 9);
  Alcotest.(check bool) "mispredict counted" true
    (u.m.Machine.ctr_ras_misses > 0)

(* A depth-81 tower overflows the 64-entry circular RAS: the oldest
   entries are dropped, so the outermost returns mispredict while the
   innermost 64 still hit — and the run must stay observationally
   identical throughout. *)
let test_ras_overflow () =
  let prog =
    [ Isa.Const (8, 80); Isa.Const (9, 0); Isa.Call tower; Isa.Halt ]
  in
  check_all "deep tower identical on all paths" (fun mode ->
      run_one ~mode prog);
  let u = setup ~mode:Superblocks prog in
  let ctx = fresh_ctx u in
  let o = run_outcome u ctx in
  Alcotest.(check bool) "tower completes" true
    (o = Done && ctx.Machine.regs.(9) = 80);
  Alcotest.(check bool) "dropped entries mispredict" true
    (u.m.Machine.ctr_ras_misses >= 16);
  Alcotest.(check bool) "live entries still hit" true
    (u.m.Machine.ctr_ras_hits >= 48)

(* RAS underflow: enter execution *at* a Ret (a hand-built host frame
   with a poked return slot), so the chained Ret pops an empty RAS and
   must fall back to the dispatcher, not chain anywhere. *)
let test_ras_underflow () =
  let prog = [ Isa.Ret; Isa.Halt ] in
  let run mode =
    let u = setup ~mode prog in
    let sp = stack + Layout.page_size - Layout.word_size in
    Machine.poke_words u.m ~addr:sp [| code0 + Isa.instr_bytes |];
    let ctx = Machine.new_ctx u.m ~pc:code0 ~sp_value:sp in
    Machine.enter_frame ctx;
    let o = run_outcome u ctx in
    ((o, ctx.Machine.instret, ctx.Machine.cost), u.m)
  in
  let obs, m = run Superblocks in
  Alcotest.(check bool) "entry-at-Ret halts" true
    (match obs with Done, 2, _ -> true | _ -> false);
  Alcotest.(check bool) "underflowing Ret mispredicts, never hits" true
    (m.Machine.ctr_ras_misses = 1 && m.Machine.ctr_ras_hits = 0);
  check_all "RAS underflow identical on all paths" (fun mode ->
      fst (run mode))

(* In-place retag under a warm inline cache: the Callr site's cached
   target page flips identity (no generation moves), so the IC's live
   (tag, priv) re-check must reject the cached superblock and fall back
   to dispatch — stale code can never be chained. *)
let test_ic_invalidation_retag () =
  let loop = code0 + (4 * Isa.instr_bytes) in
  let prog =
    [
      Isa.Const (2, 0);
      Isa.Const (4, 0);
      Isa.Const (5, 2);
      Isa.Const (7, callee);
      Isa.Callr 7; (* loop: inline-cached indirect call *)
      Isa.Syscall 3; (* retag callee page b <-> b2 (handler below) *)
      Isa.Addi (4, 4, 1);
      Isa.Blt (4, 5, loop);
      Isa.Halt;
    ]
  in
  let run mode =
    let u = setup ~mode prog in
    retag_callee_on_syscall u;
    let ctx = fresh_ctx u in
    let o = run_outcome u ctx in
    (observe u ctx o, u.m)
  in
  let s_sb, m = run Superblocks in
  (match s_sb with
  | Done, regs, _, _, _, _ ->
      Alcotest.(check int) "both iterations called the callee" 14 regs.(2)
  | _ -> Alcotest.fail "retagged Callr run must complete");
  Alcotest.(check bool) "retag defeats the inline cache" true
    (m.Machine.ctr_ic_misses >= 2);
  check_all "IC retag identical on all paths" (fun mode -> fst (run mode))

(* The counter contract: every chained Ret dispatch is exactly one RAS
   hit or miss, every chained Jmpr/Callr dispatch exactly one IC hit or
   miss. *)
let test_counter_invariants () =
  let loop = code0 + (5 * Isa.instr_bytes) in
  let jback = code0 + (10 * Isa.instr_bytes) in
  let prog =
    [
      Isa.Const (2, 0);
      Isa.Const (4, 0);
      Isa.Const (5, 25);
      Isa.Const (7, callee);
      Isa.Const (6, loop);
      Isa.Call callee; (* loop: r2 += 7 *)
      Isa.Callr 7; (* r2 += 7 *)
      Isa.Addi (4, 4, 1);
      Isa.Blt (4, 5, jback);
      Isa.Halt;
      Isa.Jmpr 6; (* jback: indirect backedge *)
    ]
  in
  let u = setup ~mode:Superblocks prog in
  let ctx = fresh_ctx u in
  let o = run_outcome u ctx in
  Alcotest.(check bool) "run completes" true
    (o = Done && ctx.Machine.regs.(2) = 25 * 14);
  (* 25 iterations x 2 Rets; the Callr runs 25x and the Jmpr backedge
     24x (the last iteration falls through to Halt) *)
  let m = u.m in
  Alcotest.(check int) "ras hits + misses = chained Ret dispatches" 50
    (m.Machine.ctr_ras_hits + m.Machine.ctr_ras_misses);
  Alcotest.(check int) "ic hits + misses = chained indirect dispatches" 49
    (m.Machine.ctr_ic_hits + m.Machine.ctr_ic_misses);
  Alcotest.(check bool) "predictors mostly hit" true
    (m.Machine.ctr_ras_hits >= 45 && m.Machine.ctr_ic_hits >= 40)

let test_default_toggle () =
  Machine.set_default_reference true;
  let m1 = Machine.create () in
  Machine.set_default_reference false;
  let m2 = Machine.create () in
  Alcotest.(check bool) "reference default on is sampled" true
    m1.Machine.reference;
  Alcotest.(check bool) "reference default off is sampled" false
    m2.Machine.reference

(* The process-wide reference default must reach machines that
   experiment code builds internally (what bench --reference relies
   on): the three machine-interpreter cells run under it produce the
   default path's digests and instret with every dispatch counter at
   zero, while the default path's own counters are non-zero. *)
let test_reference_reaches_experiments () =
  let module Suite = Dipc_bench_suite.Suite in
  let run () =
    List.map
      (fun name -> (Option.get (Suite.find name)).Suite.run Suite.default_opts)
      [ "machine_hotloop"; "machine_superblock"; "machine_callret" ]
  in
  let compiled = run () in
  Machine.set_default_reference true;
  let reference =
    Fun.protect ~finally:(fun () -> Machine.set_default_reference false) run
  in
  let dispatch (r : Suite.row) =
    List.remove_assoc "instret" r.Suite.b_counters
  in
  List.iter2
    (fun (c : Suite.row) (r : Suite.row) ->
      let name = c.Suite.b_name in
      Alcotest.(check (pair string int))
        (name ^ ": digest and instret")
        (c.Suite.b_digest, c.Suite.b_instret)
        (r.Suite.b_digest, r.Suite.b_instret);
      Alcotest.(check (list (pair string int)))
        (name ^ ": every dispatch counter is 0 on the reference path")
        (List.map (fun (k, _) -> (k, 0)) (dispatch c))
        (dispatch r);
      Alcotest.(check bool) (name ^ ": the default path counts dispatches") true
        (List.exists (fun (_, v) -> v > 0) (dispatch c)))
    compiled reference

(* --- the cost accumulator --- *)

(* The compiled path adds instruction costs into an unboxed accumulator,
   so retiring an instruction allocates nothing.  A straight-line loop
   of loads, stores and adds (the bench's machine_hotloop shape) runs
   ~1.4M instructions; a boxed float store per instruction would read
   ~2 words per instruction. *)
let test_hotloop_allocates_nothing () =
  let m = Machine.create () in
  Alcotest.(check bool) "the default path is the compiled one" false
    m.Machine.reference;
  let tag = Apl.fresh_tag m.Machine.apl in
  let code = 0x100000 and data = 0x200000 and iters = 200_000 in
  Page_table.map m.Machine.page_table ~addr:code ~count:1 ~tag ~writable:false
    ~executable:true ();
  Page_table.map m.Machine.page_table ~addr:data ~count:1 ~tag ();
  let loop = code + (3 * Isa.instr_bytes) in
  ignore
    (Memory.place_code m.Machine.mem ~addr:code
       [
         Isa.Const (1, data);
         Isa.Const (2, 0);
         Isa.Const (3, iters);
         Isa.Load (4, 1, 0);
         Isa.Addi (4, 4, 1);
         Isa.Store (1, 8, 4);
         Isa.Load (5, 1, 8);
         Isa.Store (1, 0, 5);
         Isa.Addi (2, 2, 1);
         Isa.Blt (2, 3, loop);
         Isa.Halt;
       ]);
  let ctx = Machine.new_ctx m ~pc:code ~sp_value:(data + Layout.page_size) in
  let w0 = Gc.minor_words () in
  Machine.run ~fuel:(iters * 8) m ctx;
  let words = Gc.minor_words () -. w0 in
  let instret = ctx.Machine.instret in
  Alcotest.(check bool) "ran past 1M instructions" true (instret >= 1_000_000);
  Alcotest.(check int) "loop result" iters (Machine.peek_word m ~addr:data);
  let per_instr = words /. float_of_int instret in
  if per_instr > 0.01 then
    Alcotest.failf "%.0f minor words over %d instructions (%.3f per instruction)"
      words instret per_instr

(* [ctx.cost] must be current whenever the machine is not running, on
   either path.  Each case stops the compiled path in the middle of a
   superblock, after body instructions that only the accumulator saw;
   the syscall handler records the cost it reads. *)
let cost_after_both_paths ?fuel prog =
  let run mode =
    let u = setup ~mode prog in
    let seen = ref [] in
    Machine.set_syscall_handler u.m (fun ctx _ ->
        seen := ctx.Machine.cost :: !seen);
    let ctx = fresh_ctx u in
    let o = run_outcome ?fuel u ctx in
    (o, ctx.Machine.instret, ctx.Machine.cost, !seen)
  in
  let ((_, _, cost, _) as reference) = run Reference in
  Alcotest.(check bool) "the run charged something" true (cost > 0.);
  Alcotest.(check bool) "compiled path = reference path, costs bit for bit" true
    (run Superblocks = reference);
  reference

let test_cost_after_out_of_fuel () =
  let loop = code0 + (2 * Isa.instr_bytes) in
  let o, _, _, _ =
    cost_after_both_paths ~fuel:25
      [
        Isa.Const (1, data);
        Isa.Const (2, 0);
        Isa.Addi (2, 2, 1);
        Isa.Store (1, 0, 2);
        Isa.Mul (3, 2, 2);
        Isa.Bnez (2, loop);
        Isa.Halt;
      ]
  in
  Alcotest.(check bool) "ran out of fuel" true (o = Fuel)

let test_cost_after_fault () =
  (* the Load's page is unmapped: the fault escapes [Machine.run] from
     the middle of a compiled body *)
  let o, _, _, _ =
    cost_after_both_paths
      [
        Isa.Const (1, data);
        Isa.Const (2, 3);
        Isa.Store (1, 0, 2);
        Isa.Const (4, 0x900000);
        Isa.Load (5, 4, 0);
        Isa.Halt;
      ]
  in
  match o with
  | Fault { Fault.kind = Fault.Unmapped; _ } -> ()
  | _ -> Alcotest.fail "the load must fault on the unmapped page"

let test_cost_in_syscall_handler () =
  let loop = code0 + (2 * Isa.instr_bytes) in
  let o, _, _, seen =
    cost_after_both_paths
      [
        Isa.Const (1, data);
        Isa.Const (2, 0);
        Isa.Addi (2, 2, 1);
        Isa.Store (1, 0, 2);
        Isa.Const (3, 40);
        Isa.Blt (2, 3, loop);
        Isa.Syscall 7;
        Isa.Addi (2, 2, 1);
        Isa.Syscall 7;
        Isa.Halt;
      ]
  in
  Alcotest.(check bool) "completed" true (o = Done);
  Alcotest.(check int) "the handler ran twice" 2 (List.length seen)

(* Fig. 5's dIPC policies pinned exactly: the cost a warm call adds to
   [ctx.cost] (the fourth call, after the three that fill the tracking
   and APL caches) as a hex float, and its instruction count, identical
   on the compiled path and the reference stepper.  The policy set is
   the one the benchmark's dipc_calls workload checks. *)
let fig5_pins =
  [
    ("low", true, false, false, "0x1.b3333333332p+3", 25);
    ("high", true, false, true, "0x1.f99999999a08p+5", 141);
    ("low+proc", false, false, false, "0x1.2999999999bp+6", 79);
    ("high+proc", false, false, true, "0x1.a60000000038p+6", 152);
    ("low+proc+tls", false, true, false, "0x1.14ccccccccf8p+5", 73);
    ("high+proc+tls", false, true, true, "0x1.06cccccccd04p+6", 146);
  ]

let test_fig5_costs_pinned () =
  let module Scenario = Dipc_core.Scenario in
  let module Types = Dipc_core.Types in
  let module System = Dipc_core.System in
  let measure (name, same_process, tls_optimized, high, _, _) =
    let props = if high then Types.props_high else Types.props_low in
    let sc =
      Scenario.make ~same_process ~tls_optimized ~caller_props:props
        ~callee_props:props ()
    in
    let ctx = sc.Scenario.thread.System.t_ctx in
    let call a b =
      let c0 = ctx.Machine.cost and i0 = ctx.Machine.instret in
      (match Scenario.call sc ~args:[ a; b ] with
      | Ok v when v = a + b -> ()
      | Ok v -> Alcotest.failf "%s: %d + %d returned %d" name a b v
      | Error f -> Alcotest.failf "%s: %s" name (Fault.to_string f));
      (ctx.Machine.cost -. c0, ctx.Machine.instret - i0)
    in
    for i = 1 to 3 do
      ignore (call i i)
    done;
    let ns, instrs = call 20 22 in
    let later = List.init 4 (fun i -> snd (call i (i + 1))) in
    Alcotest.(check (list int))
      (name ^ ": every warm call retires as many instructions")
      (List.init 4 (fun _ -> instrs))
      later;
    (Printf.sprintf "%h" ns, instrs)
  in
  let compiled = List.map measure fig5_pins in
  Machine.set_default_reference true;
  let reference =
    Fun.protect
      ~finally:(fun () -> Machine.set_default_reference false)
      (fun () -> List.map measure fig5_pins)
  in
  List.iter2
    (fun (name, _, _, _, ns, instrs) (got, got_ref) ->
      Alcotest.(check (pair string int)) (name ^ ": compiled path") (ns, instrs) got;
      Alcotest.(check (pair string int)) (name ^ ": reference path") (ns, instrs)
        got_ref)
    fig5_pins
    (List.combine compiled reference)

let suites =
  [
    ( "blocks.differential",
      qsuite [ prop_differential; prop_differential_traced_digest; prop_self_modifying ]
    );
    ( "blocks.invalidation",
      [
        Alcotest.test_case "page boundary" `Quick test_page_boundary;
        Alcotest.test_case "code rewrite" `Quick test_code_rewrite;
        Alcotest.test_case "page remap" `Quick test_page_remap;
        Alcotest.test_case "APL revoke mid-run" `Quick test_apl_revoke_midrun;
        Alcotest.test_case "APL-cache flush mid-run" `Quick
          test_apl_cache_flush_midrun;
        Alcotest.test_case "fuel truncation" `Quick test_fuel_truncation;
        Alcotest.test_case "default toggle" `Quick test_default_toggle;
        Alcotest.test_case "reference default reaches experiments" `Quick
          test_reference_reaches_experiments;
      ] );
    ( "blocks.side_exits",
      [
        Alcotest.test_case "speculation miss" `Quick
          test_side_exit_speculation_miss;
        Alcotest.test_case "in-place retag" `Quick test_side_exit_inplace_retag;
        Alcotest.test_case "fuel at a junction" `Quick test_fuel_at_junction;
        Alcotest.test_case "counters sanity" `Quick test_counters_sanity;
      ] );
    ( "blocks.predictors",
      [
        Alcotest.test_case "RAS misprediction" `Quick test_ras_misprediction;
        Alcotest.test_case "RAS overflow" `Quick test_ras_overflow;
        Alcotest.test_case "RAS underflow" `Quick test_ras_underflow;
        Alcotest.test_case "IC invalidation on retag" `Quick
          test_ic_invalidation_retag;
        Alcotest.test_case "counter invariants" `Quick test_counter_invariants;
      ] );
    ( "blocks.cost",
      [
        Alcotest.test_case "hot loop allocates nothing per instruction" `Quick
          test_hotloop_allocates_nothing;
        Alcotest.test_case "cost current after Out_of_fuel" `Quick
          test_cost_after_out_of_fuel;
        Alcotest.test_case "cost current after a fault escapes run" `Quick
          test_cost_after_fault;
        Alcotest.test_case "cost current in a syscall handler" `Quick
          test_cost_in_syscall_handler;
        Alcotest.test_case "Fig. 5 warm-call costs pinned" `Quick
          test_fig5_costs_pinned;
      ] );
  ]
