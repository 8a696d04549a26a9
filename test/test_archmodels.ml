(* Tests for the functional baseline-architecture models (Table 1's
   comparison points) and the TCP RPC baseline (footnote 1). *)

module Cheri = Dipc_hw.Minicheri
module Mmp = Dipc_hw.Minimmp
module Archcmp = Dipc_hw.Archcmp
module Fault = Dipc_hw.Fault
module Perm = Dipc_hw.Perm
module M = Dipc_workloads.Microbench

(* The result must be a denial with exactly [kind] (payload included). *)
let denies what kind = function
  | Ok _ -> Alcotest.failf "%s: allowed" what
  | Error f ->
      Alcotest.(check string) what (Fault.kind_to_string kind)
        (Fault.kind_to_string f.Fault.kind)

(* --- mini-CHERI --- *)

let authority = { Cheri.c_base = 0; c_len = 100; c_perm = Cheri.Data; c_sealed = None }

let code_cap = Cheri.cap ~base:0x1000 ~len:0x100 ~perm:Cheri.Exec

let data_cap = Cheri.cap ~base:0x2000 ~len:0x100 ~perm:Cheri.Data

let test_cheri_sealing () =
  (match Cheri.seal ~authority ~otype:7 ~pc:0 code_cap with
  | Ok sealed ->
      Alcotest.(check bool) "sealed" true (Cheri.is_sealed sealed);
      (* Sealed capabilities confer no authority. *)
      Alcotest.(check bool) "no access while sealed" false
        (Cheri.can_access sealed ~addr:0x1000);
      denies "double sealing" Fault.Cap_invalid
        (Cheri.seal ~authority ~otype:7 ~pc:0 sealed)
  | Error f -> Alcotest.fail (Fault.to_string f));
  denies "otype outside authority" Fault.Cap_invalid
    (Cheri.seal ~authority ~otype:9999 ~pc:0 code_cap)

let test_cheri_ccall_roundtrip () =
  let domain =
    match
      Cheri.make_domain ~authority ~otype:3 ~pc:0 ~code:code_cap ~data:data_cap
    with
    | Ok d -> d
    | Error f -> Alcotest.fail (Fault.to_string f)
  in
  let cpu =
    Cheri.cpu
      ~pcc:(Cheri.cap ~base:0x9000 ~len:0x100 ~perm:Cheri.Exec)
      ~idc:(Cheri.cap ~base:0xa000 ~len:0x100 ~perm:Cheri.Data)
  in
  (match Cheri.ccall cpu ~pc:0x1000 domain with
  | Ok () ->
      Alcotest.(check bool) "pcc switched and unsealed" true
        (Cheri.can_access cpu.Cheri.pcc ~addr:0x1000);
      Alcotest.(check bool) "idc switched" true
        (Cheri.can_access cpu.Cheri.idc ~addr:0x2000)
  | Error f -> Alcotest.fail (Fault.to_string f));
  (match Cheri.creturn cpu ~pc:0x1004 with
  | Ok () ->
      Alcotest.(check bool) "caller pcc restored" true
        (Cheri.can_access cpu.Cheri.pcc ~addr:0x9000)
  | Error f -> Alcotest.fail (Fault.to_string f));
  (* Every crossing trapped. *)
  Alcotest.(check int) "two exceptions per round trip" 2 cpu.Cheri.exceptions;
  denies "empty trusted stack" (Fault.Dcs_bounds "trusted stack empty")
    (Cheri.creturn cpu ~pc:0x9000)

let test_cheri_otype_mismatch () =
  let code = Result.get_ok (Cheri.seal ~authority ~otype:1 ~pc:0 code_cap) in
  let data = Result.get_ok (Cheri.seal ~authority ~otype:2 ~pc:0 data_cap) in
  let domain = { Cheri.d_code = code; d_data = data; d_otype = 1 } in
  let cpu =
    Cheri.cpu
      ~pcc:(Cheri.cap ~base:0x9000 ~len:0x10 ~perm:Cheri.Exec)
      ~idc:(Cheri.cap ~base:0xa000 ~len:0x10 ~perm:Cheri.Data)
  in
  denies "mismatched otypes" (Fault.No_permission Perm.Call)
    (Cheri.ccall cpu ~pc:0x1000 domain)

(* A sealed capability confers no authority until unsealed, a sealing
   authority included: sealing under it forges a capability. *)
let test_cheri_sealed_authority () =
  let sealed_authority =
    Result.get_ok (Cheri.seal ~authority ~otype:5 ~pc:0 authority)
  in
  denies "seal under a sealed authority" Fault.Cap_invalid
    (Cheri.seal ~authority:sealed_authority ~otype:7 ~pc:0 code_cap);
  denies "domain under a sealed authority" Fault.Cap_invalid
    (Cheri.make_domain ~authority:sealed_authority ~otype:7 ~pc:0
       ~code:code_cap ~data:data_cap)

(* --- mini-MMP --- *)

let test_mmp_permission_table () =
  let pd = Mmp.pd ~id:1 in
  Alcotest.(check bool) "empty table denies" false
    (Mmp.can_access pd ~addr:0x1000 ~perm:Mmp.Read_only);
  Mmp.grant pd ~base:0x1000 ~len:0x100 ~perm:Mmp.Read_only;
  Alcotest.(check bool) "granted read" true
    (Mmp.can_access pd ~addr:0x1080 ~perm:Mmp.Read_only);
  Alcotest.(check bool) "read grant denies write" false
    (Mmp.can_access pd ~addr:0x1080 ~perm:Mmp.Read_write);
  Mmp.revoke pd ~base:0x1000 ~len:0x100;
  Alcotest.(check bool) "revoked" false
    (Mmp.can_access pd ~addr:0x1080 ~perm:Mmp.Read_only);
  Alcotest.(check int) "table writes counted" 2 pd.Mmp.table_writes

let test_mmp_gates () =
  let a = Mmp.pd ~id:1 and b = Mmp.pd ~id:2 in
  let cpu = Mmp.cpu ~initial:a in
  Mmp.add_domain cpu b;
  Mmp.add_gate cpu ~addr:0x4000 ~from_pd:1 ~to_pd:2;
  (match Mmp.call_gate cpu ~pc:0x4000 ~addr:0x4000 with
  | Ok () -> Alcotest.(check int) "switched to b" 2 cpu.Mmp.current.Mmp.pd_id
  | Error f -> Alcotest.fail (Fault.to_string f));
  (* Only the gate's source domain may use it. *)
  denies "b is not the gate's source" (Fault.No_permission Perm.Call)
    (Mmp.call_gate cpu ~pc:0x4000 ~addr:0x4000);
  (match Mmp.return_gate cpu ~pc:0x4004 with
  | Ok () -> Alcotest.(check int) "returned to a" 1 cpu.Mmp.current.Mmp.pd_id
  | Error f -> Alcotest.fail (Fault.to_string f));
  Alcotest.(check int) "pipeline flushes counted" 2 cpu.Mmp.pipeline_flushes;
  denies "nothing to return from"
    (Fault.Dcs_bounds "no crossing to return from")
    (Mmp.return_gate cpu ~pc:0x1000)

let test_mmp_not_a_gate () =
  let a = Mmp.pd ~id:1 in
  let cpu = Mmp.cpu ~initial:a in
  denies "arbitrary address is not a gate" Fault.Not_entry_point
    (Mmp.call_gate cpu ~pc:0x9999 ~addr:0x9999)

(* Bulk-data sharing on MMP writes one table entry per page. *)
let test_mmp_sharing_cost_scales () =
  let share bytes = Archcmp.total (Archcmp.data_ops ~bytes Archcmp.Mmp) in
  Alcotest.(check bool) "per-page table writes" true
    (share 65536 > 10. *. share 4096)

(* --- TCP RPC baseline (footnote 1) --- *)

let test_tcp_slower_than_unix_rpc () =
  let tcp = (M.run ~warmup:10 ~iters:60 ~same_cpu:true M.Tcp_rpc_prim).M.mean_ns in
  let unix = (M.run ~warmup:10 ~iters:60 ~same_cpu:true M.Local_rpc).M.mean_ns in
  Alcotest.(check bool) "TCP slower (header processing + extra copies)" true
    (tcp > 1.1 *. unix)

let test_tcp_segmentation_grows_with_size () =
  let small = (M.run ~bytes:64 ~warmup:5 ~iters:40 ~same_cpu:true M.Tcp_rpc_prim).M.mean_ns in
  let big = (M.run ~bytes:65536 ~warmup:5 ~iters:40 ~same_cpu:true M.Tcp_rpc_prim).M.mean_ns in
  (* 64 KiB = ~46 segments, each paying header processing. *)
  Alcotest.(check bool) "segment costs visible" true (big > small +. 15_000.)

let suites =
  [
    ( "arch.minicheri",
      [
        Alcotest.test_case "sealing" `Quick test_cheri_sealing;
        Alcotest.test_case "ccall/creturn" `Quick test_cheri_ccall_roundtrip;
        Alcotest.test_case "otype mismatch" `Quick test_cheri_otype_mismatch;
        Alcotest.test_case "sealed authority" `Quick test_cheri_sealed_authority;
      ] );
    ( "arch.minimmp",
      [
        Alcotest.test_case "permission table" `Quick test_mmp_permission_table;
        Alcotest.test_case "gates" `Quick test_mmp_gates;
        Alcotest.test_case "not a gate" `Quick test_mmp_not_a_gate;
        Alcotest.test_case "sharing cost" `Quick test_mmp_sharing_cost_scales;
      ] );
    ( "arch.tcp_rpc",
      [
        Alcotest.test_case "slower than UNIX RPC" `Quick test_tcp_slower_than_unix_rpc;
        Alcotest.test_case "segmentation" `Quick test_tcp_segmentation_grows_with_size;
      ] );
  ]
