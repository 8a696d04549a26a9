(* Tests for the CODOMs machine model: permissions, tagged page table,
   APLs and the APL cache, capabilities (incl. revocation and synchronous
   scope), the DCS, the instruction interpreter and its protection
   checks, and the Table 1 architecture comparison. *)

module Perm = Dipc_hw.Perm
module Layout = Dipc_hw.Layout
module Page_table = Dipc_hw.Page_table
module Apl = Dipc_hw.Apl
module Apl_cache = Dipc_hw.Apl_cache
module Capability = Dipc_hw.Capability
module Dcs = Dipc_hw.Dcs
module Memory = Dipc_hw.Memory
module Machine = Dipc_hw.Machine
module Isa = Dipc_hw.Isa
module Fault = Dipc_hw.Fault
module Archcmp = Dipc_hw.Archcmp

(* --- perm --- *)

let test_perm_lattice () =
  Alcotest.(check bool) "write includes read" true (Perm.includes Perm.Write Perm.Read);
  Alcotest.(check bool) "read includes call" true (Perm.includes Perm.Read Perm.Call);
  Alcotest.(check bool) "call excludes read" false (Perm.includes Perm.Call Perm.Read);
  Alcotest.(check bool) "nil includes nothing" false (Perm.includes Perm.Nil Perm.Call);
  Alcotest.(check bool) "owner maps to write" true
    (Perm.equal (Perm.to_hardware Perm.Owner) Perm.Write)

let prop_perm_includes_transitive =
  let perms = [ Perm.Nil; Perm.Call; Perm.Read; Perm.Write; Perm.Owner ] in
  QCheck.Test.make ~name:"perm includes is transitive" ~count:200
    QCheck.(triple (int_range 0 4) (int_range 0 4) (int_range 0 4))
    (fun (a, b, c) ->
      let pa = List.nth perms a and pb = List.nth perms b and pc = List.nth perms c in
      (not (Perm.includes pa pb && Perm.includes pb pc)) || Perm.includes pa pc)

(* --- page table --- *)

let test_page_table_map_unmap () =
  let pt = Page_table.create () in
  Page_table.map pt ~addr:0x10000 ~count:2 ~tag:3 ();
  Alcotest.(check bool) "mapped" true (Page_table.is_mapped pt 0x10000);
  Alcotest.(check bool) "second page" true (Page_table.is_mapped pt 0x11000);
  Alcotest.(check bool) "beyond" false (Page_table.is_mapped pt 0x12000);
  Page_table.unmap pt ~addr:0x10000 ~count:2;
  Alcotest.(check bool) "unmapped" false (Page_table.is_mapped pt 0x10000)

let test_page_table_double_map_rejected () =
  let pt = Page_table.create () in
  Page_table.map pt ~addr:0x10000 ~count:1 ~tag:1 ();
  Alcotest.(check bool) "double map raises" true
    (try
       Page_table.map pt ~addr:0x10000 ~count:1 ~tag:2 ();
       false
     with Invalid_argument _ -> true)

let test_page_table_retag () =
  let pt = Page_table.create () in
  Page_table.map pt ~addr:0x10000 ~count:2 ~tag:1 ();
  Page_table.retag pt ~addr:0x10000 ~count:2 ~from_tag:1 ~to_tag:9;
  (match Page_table.find pt 0x10000 with
  | Some p -> Alcotest.(check int) "retagged" 9 p.Page_table.tag
  | None -> Alcotest.fail "page lost");
  Alcotest.(check bool) "wrong source tag rejected" true
    (try
       Page_table.retag pt ~addr:0x10000 ~count:1 ~from_tag:1 ~to_tag:2;
       false
     with Invalid_argument _ -> true)

(* --- apl --- *)

let test_apl_grants () =
  let apl = Apl.create () in
  let a = Apl.fresh_tag apl and b = Apl.fresh_tag apl in
  Alcotest.(check bool) "implicit self write" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:a) Perm.Write);
  Alcotest.(check bool) "default nil" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Nil);
  Apl.grant apl ~src:a ~dst:b Perm.Read;
  Alcotest.(check bool) "granted read" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Read);
  Alcotest.(check bool) "asymmetric" true
    (Perm.equal (Apl.permission apl ~src:b ~dst:a) Perm.Nil);
  Apl.revoke apl ~src:a ~dst:b;
  Alcotest.(check bool) "revoked" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Nil)

let test_apl_drop_tag () =
  let apl = Apl.create () in
  let a = Apl.fresh_tag apl and b = Apl.fresh_tag apl and c = Apl.fresh_tag apl in
  Apl.grant apl ~src:a ~dst:b Perm.Read;
  Apl.grant apl ~src:b ~dst:c Perm.Call;
  Apl.drop_tag apl b;
  Alcotest.(check bool) "grants to dropped tag gone" true
    (Perm.equal (Apl.permission apl ~src:a ~dst:b) Perm.Nil);
  Alcotest.(check bool) "grants from dropped tag gone" true
    (Perm.equal (Apl.permission apl ~src:b ~dst:c) Perm.Nil)

(* Differential check of the row-based APL against an association-list
   model: random grant/revoke/drop_tag sequences over tags -1..13 — the
   "no domain" tag, self pairs, tags never granted and tags past the last
   [fresh_tag] — with every pair's permission compared after each step,
   [Owner] stored as [Write], and [generation] bumped by exactly one on
   every mutation (and untouched by a rejected grant). *)
type apl_op = Grant of int * int * Perm.t | Revoke of int * int | Drop of int

let apl_tags = 14

let prop_apl_rows_match_model =
  let perms = [| Perm.Nil; Perm.Call; Perm.Read; Perm.Write; Perm.Owner |] in
  let tag = QCheck.Gen.int_range (-1) (apl_tags - 1) in
  let op =
    QCheck.Gen.(
      frequency
        [
          ( 6,
            map3 (fun s d p -> Grant (s, d, perms.(p))) tag tag (int_range 0 4) );
          (2, map2 (fun s d -> Revoke (s, d)) tag tag);
          (1, map (fun t -> Drop t) tag);
        ])
  in
  let show = function
    | Grant (s, d, p) -> Printf.sprintf "grant %d->%d %s" s d (Perm.to_string p)
    | Revoke (s, d) -> Printf.sprintf "revoke %d->%d" s d
    | Drop t -> Printf.sprintf "drop %d" t
  in
  QCheck.Test.make ~name:"APL rows match an association-list model" ~count:300
    (QCheck.make
       ~print:(fun (fresh, ops) ->
         Printf.sprintf "fresh %d: %s" fresh (String.concat "; " (List.map show ops)))
       QCheck.Gen.(pair (int_range 0 8) (list_size (int_range 0 60) op)))
    (fun (fresh, ops) ->
      let apl = Apl.create () in
      for _ = 1 to fresh do
        ignore (Apl.fresh_tag apl)
      done;
      let model = ref [] in
      let model_perm src dst =
        if src = dst then Perm.Write
        else Option.value (List.assoc_opt (src, dst) !model) ~default:Perm.Nil
      in
      let remove_if f = model := List.filter (fun (k, _) -> not (f k)) !model in
      let agree () =
        for src = -1 to apl_tags do
          for dst = -1 to apl_tags do
            let got = Apl.permission apl ~src ~dst and want = model_perm src dst in
            if not (Perm.equal got want) then
              QCheck.Test.fail_reportf "permission %d->%d: rows %s, model %s" src
                dst (Perm.to_string got) (Perm.to_string want)
          done
        done
      in
      List.iter
        (fun op ->
          let gen0 = Apl.generation apl in
          let accepted =
            match op with
            | Grant (src, dst, p) -> (
                match Apl.grant apl ~src ~dst p with
                | () ->
                    if src = dst || src < 0 || dst < 0 then
                      QCheck.Test.fail_reportf "grant %d->%d accepted" src dst;
                    remove_if (( = ) (src, dst));
                    let hw = Perm.to_hardware p in
                    if not (Perm.equal hw Perm.Nil) then
                      model := ((src, dst), hw) :: !model;
                    true
                | exception Invalid_argument _ ->
                    if src <> dst && src >= 0 && dst >= 0 then
                      QCheck.Test.fail_reportf "grant %d->%d rejected" src dst;
                    false)
            | Revoke (src, dst) ->
                Apl.revoke apl ~src ~dst;
                remove_if (( = ) (src, dst));
                true
            | Drop t ->
                Apl.drop_tag apl t;
                remove_if (fun (s, d) -> s = t || d = t);
                true
          in
          let bumps = Apl.generation apl - gen0 in
          if bumps <> if accepted then 1 else 0 then
            QCheck.Test.fail_reportf "%s moved the generation by %d" (show op) bumps;
          agree ())
        ops;
      true)

(* --- apl cache --- *)

let test_apl_cache_hit_miss () =
  let c = Apl_cache.create () in
  Alcotest.(check bool) "initial miss" true (Apl_cache.lookup c 7 = None);
  let hw, hit = Apl_cache.ensure c 7 in
  Alcotest.(check bool) "installed" false hit;
  let hw', hit' = Apl_cache.ensure c 7 in
  Alcotest.(check bool) "hit" true hit';
  Alcotest.(check int) "stable hardware tag" hw hw'

let test_apl_cache_capacity_lru () =
  let c = Apl_cache.create () in
  for tag = 1 to Apl_cache.capacity do
    ignore (Apl_cache.install c tag)
  done;
  (* Touch tag 1 so it is recently used, then overflow. *)
  ignore (Apl_cache.lookup c 1);
  ignore (Apl_cache.install c 1000);
  Alcotest.(check bool) "recently used survives" true (Apl_cache.lookup c 1 <> None);
  Alcotest.(check int) "still at capacity" Apl_cache.capacity
    (List.length (Apl_cache.resident_tags c))

let test_apl_cache_hw_tag_range () =
  let c = Apl_cache.create () in
  for tag = 100 to 200 do
    let hw = Apl_cache.install c tag in
    Alcotest.(check bool) "5-bit hardware tag" true (hw >= 0 && hw < 32)
  done

(* --- capabilities --- *)

let sync_scope = Capability.Synchronous { thread = 0; depth = 0; epoch = 0 }

let test_capability_covers () =
  let cap = { Capability.base = 0x1000; length = 0x100; perm = Perm.Read; scope = sync_scope } in
  Alcotest.(check bool) "inside" true (Capability.covers cap ~addr:0x1000 ~len:8);
  Alcotest.(check bool) "end" true (Capability.covers cap ~addr:0x10f8 ~len:8);
  Alcotest.(check bool) "past end" false (Capability.covers cap ~addr:0x10f9 ~len:8);
  Alcotest.(check bool) "before" false (Capability.covers cap ~addr:0xfff ~len:8)

let test_capability_restrict_no_amplify () =
  let cap = { Capability.base = 0x1000; length = 0x100; perm = Perm.Read; scope = sync_scope } in
  (match Capability.restrict cap ~base:0x1000 ~length:0x10 ~perm:Perm.Read with
  | Ok c -> Alcotest.(check int) "narrowed" 0x10 c.Capability.length
  | Error e -> Alcotest.fail e);
  Alcotest.(check bool) "cannot widen range" true
    (Result.is_error (Capability.restrict cap ~base:0x0fff ~length:0x10 ~perm:Perm.Read));
  Alcotest.(check bool) "cannot amplify perm" true
    (Result.is_error (Capability.restrict cap ~base:0x1000 ~length:0x10 ~perm:Perm.Write))

let prop_capability_restrict_shrinks =
  QCheck.Test.make ~name:"restrict never expands authority" ~count:300
    QCheck.(quad (int_range 0 1000) (int_range 1 1000) (int_range 0 2000) (int_range 1 1000))
    (fun (base, len, b2, l2) ->
      let cap = { Capability.base; length = len; perm = Perm.Write; scope = sync_scope } in
      match Capability.restrict cap ~base:b2 ~length:l2 ~perm:Perm.Write with
      | Ok c ->
          c.Capability.base >= cap.Capability.base
          && c.Capability.base + c.Capability.length
             <= cap.Capability.base + cap.Capability.length
      | Error _ -> true)

let test_revocation () =
  let t = Capability.Revocation.create () in
  Alcotest.(check int) "initial" 0 (Capability.Revocation.value t ~tag:1 ~counter:0);
  Capability.Revocation.revoke t ~tag:1 ~counter:0;
  Alcotest.(check int) "bumped" 1 (Capability.Revocation.value t ~tag:1 ~counter:0);
  Alcotest.(check int) "independent counters" 0
    (Capability.Revocation.value t ~tag:1 ~counter:1)

(* The table keys a (tag, counter) pair on one packed int when both fit
   in half a word and falls back to a pair-keyed table otherwise.  Keys
   on both sides of that line, and pairs that would collide under a
   careless packing, must each keep a counter of their own. *)
let test_revocation_wide_keys () =
  let t = Capability.Revocation.create () in
  let half = 1 lsl ((Sys.int_size - 1) / 2) in
  let keys =
    [
      (1, 0);
      (0, half);  (* (1, 0) if a counter could carry into the tag *)
      (1, half - 1);
      (half - 1, half - 1);
      (half, 0);
      (2, -1);
      (-2, 5);
      (max_int, max_int);
      (min_int, 0);
      (0, 0);
    ]
  in
  List.iteri
    (fun i (tag, counter) ->
      for _ = 0 to i do
        Capability.Revocation.revoke t ~tag ~counter
      done)
    keys;
  List.iteri
    (fun i (tag, counter) ->
      Alcotest.(check int)
        (Printf.sprintf "revoked %d times: (%d, %d)" (i + 1) tag counter)
        (i + 1)
        (Capability.Revocation.value t ~tag ~counter))
    keys;
  Alcotest.(check int) "untouched neighbour" 0
    (Capability.Revocation.value t ~tag:2 ~counter:(-2));
  Alcotest.(check int) "untouched wide neighbour" 0
    (Capability.Revocation.value t ~tag:max_int ~counter:0);
  (* 300 more packed keys: the table doubles several times, and every
     counter survives the rehashing. *)
  let bumps tag counter = 1 + ((tag + counter) mod 3) in
  for tag = 100 to 199 do
    for counter = 0 to 2 do
      for _ = 1 to bumps tag counter do
        Capability.Revocation.revoke t ~tag ~counter
      done
    done
  done;
  for tag = 100 to 199 do
    for counter = 0 to 3 do
      Alcotest.(check int) "counter after growth"
        (if counter = 3 then 0 else bumps tag counter)
        (Capability.Revocation.value t ~tag ~counter)
    done
  done;
  Alcotest.(check int) "earlier packed key kept" 4
    (Capability.Revocation.value t ~tag:(half - 1) ~counter:(half - 1))

(* --- DCS --- *)

let dummy_cap = { Capability.base = 0; length = 8; perm = Perm.Read; scope = sync_scope }

let test_dcs_push_pop () =
  let d = Dcs.create () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.push d ~pc:0 { dummy_cap with Capability.base = 8 };
  Alcotest.(check int) "depth" 2 (Dcs.depth d);
  let c = Dcs.pop d ~pc:0 in
  Alcotest.(check int) "lifo" 8 c.Capability.base

let test_dcs_base_protection () =
  let d = Dcs.create () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.set_base d ~pc:0 1;
  Alcotest.check_raises "pop below base faults"
    (Fault.Fault { Fault.kind = Fault.Dcs_bounds "pop below base"; pc = 0; addr = None })
    (fun () -> ignore (Dcs.pop d ~pc:0))

let test_dcs_switch_restore () =
  let d = Dcs.create () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.push d ~pc:0 { dummy_cap with Capability.base = 8 };
  (* Switch copying 1 argument entry. *)
  let saved = Dcs.switch d ~pc:0 ~args:1 in
  Alcotest.(check int) "fresh stack has the argument" 1 (Dcs.depth d);
  let arg = Dcs.pop d ~pc:0 in
  Alcotest.(check int) "argument is the top entry" 8 arg.Capability.base;
  Dcs.push d ~pc:0 { dummy_cap with Capability.base = 16 };
  Dcs.restore d ~pc:0 ~rets:1 saved;
  Alcotest.(check int) "restored + result" 3 (Dcs.depth d);
  let result = Dcs.pop d ~pc:0 in
  Alcotest.(check int) "result copied back" 16 result.Capability.base

(* DCS confidentiality under recycling: the stack a [restore] detaches is
   reused by the next [switch], and must come back holding only the new
   call's copied arguments — nothing the previous callee pushed. *)
let test_dcs_switch_recycles_cleared_stack () =
  let d = Dcs.create () in
  let cap base = { dummy_cap with Capability.base } in
  Dcs.push d ~pc:0 (cap 8);
  Dcs.push d ~pc:0 (cap 16);
  let saved = Dcs.switch d ~pc:0 ~args:1 in
  let callee_stack = d.Dcs.slots in
  (* The callee leaves its own capabilities behind on its stack. *)
  List.iter (fun b -> Dcs.push d ~pc:0 (cap b)) [ 0x100; 0x200; 0x300 ];
  Dcs.restore d ~pc:0 ~rets:0 saved;
  Alcotest.(check int) "caller stack back" 2 (Dcs.depth d);
  let saved = Dcs.switch d ~pc:0 ~args:2 in
  Alcotest.(check bool) "the detached stack is reused" true (d.Dcs.slots == callee_stack);
  Alcotest.(check int) "only the copied arguments" 2 (Dcs.depth d);
  Array.iteri
    (fun i slot ->
      if i >= 2 && slot <> None then
        Alcotest.failf "slot %d still holds a previous callee's capability" i)
    d.Dcs.slots;
  Alcotest.(check int) "top argument" 16 (Dcs.pop d ~pc:0).Capability.base;
  Alcotest.(check int) "bottom argument" 8 (Dcs.pop d ~pc:0).Capability.base;
  Alcotest.check_raises "popping below the arguments faults"
    (Fault.Fault { Fault.kind = Fault.Dcs_bounds "pop below base"; pc = 0; addr = None })
    (fun () -> ignore (Dcs.pop d ~pc:0));
  Dcs.restore d ~pc:0 ~rets:0 saved;
  Alcotest.(check int) "caller stack intact" 2 (Dcs.depth d)

let test_dcs_overflow () =
  let d = Dcs.create ~capacity:2 () in
  Dcs.push d ~pc:0 dummy_cap;
  Dcs.push d ~pc:0 dummy_cap;
  Alcotest.check_raises "overflow"
    (Fault.Fault { Fault.kind = Fault.Dcs_bounds "overflow"; pc = 0; addr = None })
    (fun () -> Dcs.push d ~pc:0 dummy_cap)

(* --- machine: a small two-domain world --- *)

type world = {
  m : Machine.t;
  tag_a : int;
  tag_b : int;
  tag_s : int; (* the stacks domain: reachable only through capabilities *)
  code_a : int; (* page base for A's code *)
  code_b : int;
  data_a : int;
  data_b : int;
  stack_page : int;
  stack_a : int; (* top *)
}

let build_world () =
  let m = Machine.create () in
  let apl = m.Machine.apl in
  let tag_a = Apl.fresh_tag apl and tag_b = Apl.fresh_tag apl in
  let tag_s = Apl.fresh_tag apl in
  let pt = m.Machine.page_table in
  let code_a = 0x100000 and code_b = 0x200000 in
  let data_a = 0x300000 and data_b = 0x400000 in
  let stack_page = 0x500000 in
  Page_table.map pt ~addr:code_a ~count:1 ~tag:tag_a ~writable:false ~executable:true ();
  Page_table.map pt ~addr:code_b ~count:1 ~tag:tag_b ~writable:false ~executable:true ();
  Page_table.map pt ~addr:data_a ~count:1 ~tag:tag_a ();
  Page_table.map pt ~addr:data_b ~count:1 ~tag:tag_b ();
  Page_table.map pt ~addr:stack_page ~count:1 ~tag:tag_s ();
  { m; tag_a; tag_b; tag_s; code_a; code_b; data_a; data_b; stack_page;
    stack_a = stack_page + 0x1000 }

(* The thread-private stack capability, like dIPC's c6 convention: the
   stack travels with the thread across domains. *)
let install_stack_cap w ctx =
  ctx.Machine.cregs.(6) <-
    Some
      {
        Capability.base = w.stack_page;
        length = 0x1000;
        perm = Perm.Write;
        scope = Capability.Asynchronous { owner_tag = w.tag_s; counter = 0; value = 0 };
      }

(* Run instructions placed in A's code page; the program must end with
   Halt. *)
let run_in_a ?(setup = fun _ -> ()) w instrs =
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_a instrs);
  let ctx = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  install_stack_cap w ctx;
  setup ctx;
  Machine.run w.m ctx;
  ctx

let expect_fault w instrs kind_check =
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_a instrs);
  let ctx = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  install_stack_cap w ctx;
  match Machine.run w.m ctx with
  | () -> Alcotest.fail "expected a fault"
  | exception Fault.Fault f ->
      if not (kind_check f.Fault.kind) then
        Alcotest.failf "unexpected fault: %s" (Fault.to_string f)

let test_machine_arithmetic () =
  let w = build_world () in
  let ctx =
    run_in_a w
      [
        Isa.Const (0, 6);
        Isa.Const (1, 7);
        Isa.Mul (2, 0, 1);
        Isa.Addi (2, 2, 8);
        Isa.Shli (2, 2, 1);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "result" 100 ctx.Machine.regs.(2)

let test_machine_load_store_own_domain () =
  let w = build_world () in
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_a);
        Isa.Const (0, 1234);
        Isa.Store (1, 0, 0);
        Isa.Load (2, 1, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "round trip" 1234 ctx.Machine.regs.(2)

let test_machine_denied_cross_domain_store () =
  let w = build_world () in
  expect_fault w
    [ Isa.Const (1, w.data_b); Isa.Const (0, 1); Isa.Store (1, 0, 0); Isa.Halt ]
    (function Fault.No_permission _ -> true | _ -> false)

let test_machine_apl_read_grant () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Read;
  Machine.poke_words w.m ~addr:w.data_b [| 77 |];
  let ctx = run_in_a w [ Isa.Const (1, w.data_b); Isa.Load (0, 1, 0); Isa.Halt ] in
  Alcotest.(check int) "read allowed" 77 ctx.Machine.regs.(0);
  (* Read grant still forbids writing. *)
  expect_fault w
    [ Isa.Const (1, w.data_b); Isa.Store (1, 0, 1); Isa.Halt ]
    (function Fault.No_permission p -> Perm.equal p Perm.Write | _ -> false)

let test_machine_page_protection_honored () =
  let w = build_world () in
  (* APL write to B, but B's page is read-only: per-page bits win. *)
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Write;
  Page_table.set_protection w.m.Machine.page_table ~addr:w.data_b ~count:1
    ~writable:false ();
  expect_fault w
    [ Isa.Const (1, w.data_b); Isa.Store (1, 0, 1); Isa.Halt ]
    (function Fault.Write_to_readonly -> true | _ -> false)

let test_machine_unmapped () =
  let w = build_world () in
  expect_fault w
    [ Isa.Const (1, 0x9999000); Isa.Load (0, 1, 0); Isa.Halt ]
    (function Fault.Unmapped -> true | _ -> false)

let test_machine_cross_domain_call_alignment () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Call;
  (* The return path B->A needs its own authority (dIPC proxies hand the
     callee a return capability; here a plain APL grant suffices). *)
  Apl.grant w.m.Machine.apl ~src:w.tag_b ~dst:w.tag_a Perm.Read;
  (* An aligned entry point in B returns 55; a misaligned one exists 4
     bytes later. *)
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_b
       [ Isa.Const (0, 55); Isa.Ret ]);
  let ctx =
    run_in_a w [ Isa.Call w.code_b; Isa.Halt ]
  in
  Alcotest.(check int) "entered through entry point" 55 ctx.Machine.regs.(0);
  expect_fault w
    [ Isa.Call (w.code_b + Isa.instr_bytes); Isa.Halt ]
    (function Fault.Not_entry_point -> true | _ -> false)

let test_machine_read_grant_allows_arbitrary_jump () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Read;
  Apl.grant w.m.Machine.apl ~src:w.tag_b ~dst:w.tag_a Perm.Read;
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_b
       [ Isa.Nop; Isa.Const (0, 9); Isa.Ret ]);
  (* Jump into the middle of B: fine with read. *)
  let ctx = run_in_a w [ Isa.Call (w.code_b + Isa.instr_bytes); Isa.Halt ] in
  Alcotest.(check int) "jumped mid-domain" 9 ctx.Machine.regs.(0)

let test_machine_no_call_no_entry () =
  let w = build_world () in
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_b [ Isa.Ret ]);
  expect_fault w
    [ Isa.Call w.code_b; Isa.Halt ]
    (function Fault.No_permission _ -> true | _ -> false)

let test_machine_exec_violation () =
  let w = build_world () in
  expect_fault w
    [ Isa.Jmp w.data_a ]
    (function Fault.Exec_violation -> true | _ -> false)

let test_machine_privileged_instruction () =
  let w = build_world () in
  (* RdTp from an unprivileged page faults. *)
  expect_fault w
    [ Isa.RdTp 0; Isa.Halt ]
    (function Fault.Privilege_required -> true | _ -> false);
  (* Flip the privileged-capability bit: now allowed, no mode switch. *)
  (match Page_table.find w.m.Machine.page_table w.code_a with
  | Some p -> p.Page_table.priv_cap <- true
  | None -> Alcotest.fail "code page missing");
  let ctx =
    run_in_a w
      ~setup:(fun ctx -> ctx.Machine.tp <- 0xbeef0)
      [ Isa.RdTp 0; Isa.Halt ]
  in
  Alcotest.(check int) "tp read" 0xbeef0 ctx.Machine.regs.(0)

let test_machine_capability_data_access () =
  let w = build_world () in
  Machine.poke_words w.m ~addr:w.data_b [| 31337 |];
  (* No APL grant; hand the context a capability instead. *)
  let cap =
    { Capability.base = w.data_b; length = 64; perm = Perm.Read; scope = sync_scope }
  in
  let ctx0 = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  (* scope thread must match the context that uses it *)
  let cap = { cap with Capability.scope = Capability.Synchronous { thread = ctx0.Machine.id; depth = 0; epoch = 0 } } in
  ctx0.Machine.cregs.(0) <- Some cap;
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_a
       [ Isa.Const (1, w.data_b); Isa.Load (0, 1, 0); Isa.Halt ]);
  Machine.run w.m ctx0;
  Alcotest.(check int) "capability authorised the load" 31337 ctx0.Machine.regs.(0)

let test_machine_capability_bounds () =
  let w = build_world () in
  let ctx0 = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  ctx0.Machine.cregs.(0) <-
    Some
      {
        Capability.base = w.data_b;
        length = 8;
        perm = Perm.Read;
        scope = Capability.Synchronous { thread = ctx0.Machine.id; depth = 0; epoch = 0 };
      };
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_a
       [ Isa.Const (1, w.data_b + 8); Isa.Load (0, 1, 0); Isa.Halt ]);
  (match Machine.run w.m ctx0 with
  | () -> Alcotest.fail "expected out-of-bounds fault"
  | exception Fault.Fault f ->
      Alcotest.(check bool) "bounds fault" true
        (match f.Fault.kind with Fault.No_permission _ -> true | _ -> false))

let test_machine_cap_derive_and_use () =
  let w = build_world () in
  (* Derive a capability from the APL and use it after the grant would no
     longer be needed. *)
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Write;
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_b);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Write);
        Isa.Const (0, 99);
        Isa.Store (1, 0, 0);
        Isa.Load (3, 1, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "store through derived cap" 99 ctx.Machine.regs.(3)

let test_machine_cap_derive_requires_apl () =
  let w = build_world () in
  expect_fault w
    [
      Isa.Const (1, w.data_b);
      Isa.Const (2, 64);
      Isa.CapAplDerive (0, 1, 2, Perm.Write);
      Isa.Halt;
    ]
    (function Fault.No_permission _ -> true | _ -> false)

let test_machine_sync_cap_dies_with_frame () =
  let w = build_world () in
  (* A function in A derives a capability, returns; the capability must be
     dead afterwards. *)
  let fn = w.code_a + 0x100 in
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:fn
       [
         Isa.Const (1, w.data_a);
         Isa.Const (2, 64);
         Isa.CapAplDerive (0, 1, 2, Perm.Write);
         Isa.Ret;
       ]);
  expect_fault w
    [
      Isa.Call fn;
      (* back home: the sync cap in c0 is now dead; CapPush must fault *)
      Isa.CapPush 0;
      Isa.Halt;
    ]
    (function Fault.Cap_invalid -> true | _ -> false)

let test_machine_async_cap_revocation () =
  let w = build_world () in
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_a);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Write);
        Isa.Const (3, 5) (* revocation counter index *);
        Isa.CapAsync (1, 0, 3);
        (* still valid: store through it *)
        Isa.Const (0, 11);
        Isa.Store (1, 0, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check int) "async cap worked" 11 (Machine.peek_word w.m ~addr:w.data_a);
  ignore ctx;
  (* Now revoke counter 5 and try to use a fresh context with the same
     stored capability. *)
  let ctx2 = Machine.new_ctx w.m ~pc:w.code_a ~sp_value:w.stack_a in
  ctx2.Machine.cregs.(1) <-
    Some
      {
        Capability.base = w.data_a;
        length = 64;
        perm = Perm.Write;
        scope = Capability.Asynchronous { owner_tag = w.tag_a; counter = 5; value = 0 };
      };
  Capability.Revocation.revoke w.m.Machine.revocation ~tag:w.tag_a ~counter:5;
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_b [ Isa.Halt ]);
  ignore
    (Memory.place_code w.m.Machine.mem ~addr:w.code_a
       [ Isa.Const (1, w.data_b); Isa.Store (1, 0, 0); Isa.Halt ]);
  (match Machine.run w.m ctx2 with
  | () -> Alcotest.fail "expected revoked-capability fault"
  | exception Fault.Fault f ->
      Alcotest.(check bool) "revoked" true
        (match f.Fault.kind with Fault.No_permission _ -> true | _ -> false))

let test_machine_cap_storage_bit () =
  let w = build_world () in
  let cap_page = 0x600000 in
  Page_table.map w.m.Machine.page_table ~addr:cap_page ~count:1 ~tag:w.tag_a
    ~cap_store:true ();
  (* Regular stores to a capability page fault. *)
  expect_fault w
    [ Isa.Const (1, cap_page); Isa.Store (1, 0, 0); Isa.Halt ]
    (function Fault.Cap_storage _ -> true | _ -> false);
  (* Capability store/load round trip works there, and capability access
     to a regular page faults. *)
  let ctx =
    run_in_a w
      [
        Isa.Const (1, w.data_a);
        Isa.Const (2, 64);
        Isa.CapAplDerive (0, 1, 2, Perm.Write);
        Isa.Const (3, cap_page);
        Isa.CapStore (3, 0, 0);
        Isa.CapLoad (4, 3, 0);
        Isa.Halt;
      ]
  in
  Alcotest.(check bool) "cap round-tripped" true (ctx.Machine.cregs.(4) <> None);
  expect_fault w
    [
      Isa.Const (1, w.data_a);
      Isa.Const (2, 64);
      Isa.CapAplDerive (0, 1, 2, Perm.Write);
      Isa.Const (3, w.data_a);
      Isa.CapStore (3, 0, 0);
      Isa.Halt;
    ]
    (function Fault.Cap_storage _ -> true | _ -> false)

let test_machine_costs_accumulate () =
  let w = build_world () in
  let ctx = run_in_a w [ Isa.Nop; Isa.Nop; Isa.Halt ] in
  Alcotest.(check int) "instret" 3 ctx.Machine.instret;
  Alcotest.(check bool) "cost positive" true (ctx.Machine.cost > 0.)

let test_machine_apl_cache_counts () =
  let w = build_world () in
  Apl.grant w.m.Machine.apl ~src:w.tag_a ~dst:w.tag_b Perm.Call;
  Apl.grant w.m.Machine.apl ~src:w.tag_b ~dst:w.tag_a Perm.Read;
  ignore (Memory.place_code w.m.Machine.mem ~addr:w.code_b [ Isa.Ret ]);
  let ctx =
    run_in_a w [ Isa.Call w.code_b; Isa.Call w.code_b; Isa.Halt ]
  in
  let _, misses, _ = Apl_cache.stats ctx.Machine.apl_cache in
  (* First touch of each domain misses; afterwards everything hits. *)
  Alcotest.(check bool) "at most 2 misses" true (misses <= 2)

(* --- archcmp (Table 1) --- *)

let test_archcmp_rows () =
  let rows = Archcmp.table ~bytes:4096 in
  Alcotest.(check int) "four architectures" 4 (List.length rows);
  let cost arch =
    let r = List.find (fun r -> r.Archcmp.row_arch = arch) rows in
    r.Archcmp.switch_cost
  in
  Alcotest.(check bool) "codoms cheapest switch" true
    (cost Archcmp.Codoms < cost Archcmp.Mmp
    && cost Archcmp.Mmp < cost Archcmp.Conventional
    && cost Archcmp.Codoms < cost Archcmp.Cheri)

let test_archcmp_data () =
  let rows = Archcmp.table ~bytes:65536 in
  let data arch =
    let r = List.find (fun r -> r.Archcmp.row_arch = arch) rows in
    r.Archcmp.data_cost
  in
  Alcotest.(check bool) "capability setup beats memcpy" true
    (data Archcmp.Codoms < data Archcmp.Conventional);
  Alcotest.(check bool) "codoms == cheri for data" true
    (data Archcmp.Codoms = data Archcmp.Cheri)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "hw.perm",
      [ Alcotest.test_case "lattice" `Quick test_perm_lattice ]
      @ qsuite [ prop_perm_includes_transitive ] );
    ( "hw.page_table",
      [
        Alcotest.test_case "map/unmap" `Quick test_page_table_map_unmap;
        Alcotest.test_case "double map" `Quick test_page_table_double_map_rejected;
        Alcotest.test_case "retag" `Quick test_page_table_retag;
      ] );
    ( "hw.apl",
      [
        Alcotest.test_case "grants" `Quick test_apl_grants;
        Alcotest.test_case "drop tag" `Quick test_apl_drop_tag;
      ]
      @ qsuite [ prop_apl_rows_match_model ] );
    ( "hw.apl_cache",
      [
        Alcotest.test_case "hit/miss" `Quick test_apl_cache_hit_miss;
        Alcotest.test_case "capacity + LRU" `Quick test_apl_cache_capacity_lru;
        Alcotest.test_case "hw tag range" `Quick test_apl_cache_hw_tag_range;
      ] );
    ( "hw.capability",
      [
        Alcotest.test_case "covers" `Quick test_capability_covers;
        Alcotest.test_case "restrict" `Quick test_capability_restrict_no_amplify;
        Alcotest.test_case "revocation" `Quick test_revocation;
        Alcotest.test_case "revocation keys past the packing" `Quick
          test_revocation_wide_keys;
      ]
      @ qsuite [ prop_capability_restrict_shrinks ] );
    ( "hw.dcs",
      [
        Alcotest.test_case "push/pop" `Quick test_dcs_push_pop;
        Alcotest.test_case "base protection" `Quick test_dcs_base_protection;
        Alcotest.test_case "switch/restore" `Quick test_dcs_switch_restore;
        Alcotest.test_case "switch recycles a cleared stack" `Quick
          test_dcs_switch_recycles_cleared_stack;
        Alcotest.test_case "overflow" `Quick test_dcs_overflow;
      ] );
    ( "hw.machine",
      [
        Alcotest.test_case "arithmetic" `Quick test_machine_arithmetic;
        Alcotest.test_case "load/store own domain" `Quick test_machine_load_store_own_domain;
        Alcotest.test_case "cross-domain store denied" `Quick test_machine_denied_cross_domain_store;
        Alcotest.test_case "APL read grant" `Quick test_machine_apl_read_grant;
        Alcotest.test_case "page bits honored" `Quick test_machine_page_protection_honored;
        Alcotest.test_case "unmapped" `Quick test_machine_unmapped;
        Alcotest.test_case "entry-point alignment" `Quick test_machine_cross_domain_call_alignment;
        Alcotest.test_case "read allows arbitrary jump" `Quick test_machine_read_grant_allows_arbitrary_jump;
        Alcotest.test_case "no perm, no entry" `Quick test_machine_no_call_no_entry;
        Alcotest.test_case "exec violation" `Quick test_machine_exec_violation;
        Alcotest.test_case "privileged capability bit" `Quick test_machine_privileged_instruction;
        Alcotest.test_case "capability data access" `Quick test_machine_capability_data_access;
        Alcotest.test_case "capability bounds" `Quick test_machine_capability_bounds;
        Alcotest.test_case "derive + use" `Quick test_machine_cap_derive_and_use;
        Alcotest.test_case "derive requires APL" `Quick test_machine_cap_derive_requires_apl;
        Alcotest.test_case "sync cap dies with frame" `Quick test_machine_sync_cap_dies_with_frame;
        Alcotest.test_case "async cap revocation" `Quick test_machine_async_cap_revocation;
        Alcotest.test_case "capability storage bit" `Quick test_machine_cap_storage_bit;
        Alcotest.test_case "cost accounting" `Quick test_machine_costs_accumulate;
        Alcotest.test_case "apl cache counts" `Quick test_machine_apl_cache_counts;
      ] );
    ( "hw.archcmp",
      [
        Alcotest.test_case "switch costs (Table 1)" `Quick test_archcmp_rows;
        Alcotest.test_case "data costs (Table 1)" `Quick test_archcmp_data;
      ] );
  ]
