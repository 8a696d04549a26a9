(* A functional miniature of Mondrian Memory Protection (MMP), for the
   Table 1 comparison (Sec. 4.1 contrasts CODOMs with MMP [63]).

   MMP gives each protection domain a privileged permissions table with
   word-granularity entries; a hardware PLB caches them.  Cross-domain
   calls go through switch/return gates and cost (at best) a pipeline
   flush; sharing bulk data means writing (and later invalidating) table
   entries for every region — the costs Table 1 charges MMP with. *)

type perm = None_ | Read_only | Read_write | Execute_read

let allows granted needed =
  match (granted, needed) with
  | None_, (None_ | Read_only | Read_write | Execute_read) -> false
  | (Read_only | Read_write | Execute_read), None_ -> true
  | Read_only, Read_only -> true
  | Read_only, (Read_write | Execute_read) -> false
  | Read_write, (Read_only | Read_write) -> true
  | Read_write, Execute_read -> false
  | Execute_read, (Read_only | Execute_read) -> true
  | Execute_read, Read_write -> false

type region = { r_base : int; r_len : int; r_perm : perm }

type pd = {
  pd_id : int;
  mutable regions : region list; (* the privileged permissions table *)
  mutable table_writes : int; (* cost proxy for grants/revocations *)
}

let pd ~id = { pd_id = id; regions = []; table_writes = 0 }

(* Privileged: only the (trusted) supervisor edits permission tables; the
   write count stands in for the table-walk + PLB-invalidate cost. *)
let grant pd ~base ~len ~perm =
  pd.regions <- { r_base = base; r_len = len; r_perm = perm } :: pd.regions;
  pd.table_writes <- pd.table_writes + 1

let revoke pd ~base ~len =
  pd.regions <-
    List.filter (fun r -> not (r.r_base = base && r.r_len = len)) pd.regions;
  pd.table_writes <- pd.table_writes + 1

let can_access pd ~addr ~perm =
  List.exists
    (fun r -> addr >= r.r_base && addr < r.r_base + r.r_len && allows r.r_perm perm)
    pd.regions

(* Switch and return gates: addresses the supervisor designated as legal
   crossing points between two domains. *)
type gate = { g_addr : int; g_from : int; g_to : int }

type cpu = {
  mutable current : pd;
  gates : (int, gate) Hashtbl.t; (* gate address -> gate *)
  domains : (int, pd) Hashtbl.t;
  mutable cross_stack : int list; (* return-gate discipline *)
  mutable pipeline_flushes : int;
  mutable posture : Fault.posture; (* enforcement posture, as Machine *)
  mutable audited : int; (* denials downgraded by the Audit posture *)
}

let cpu ~initial =
  let t =
    {
      current = initial;
      gates = Hashtbl.create 8;
      domains = Hashtbl.create 8;
      cross_stack = [];
      pipeline_flushes = 0;
      posture = Fault.Strict;
      audited = 0;
    }
  in
  Hashtbl.replace t.domains initial.pd_id initial;
  t

let add_domain cpu pd = Hashtbl.replace cpu.domains pd.pd_id pd

let add_gate cpu ~addr ~from_pd ~to_pd =
  Hashtbl.replace cpu.gates addr { g_addr = addr; g_from = from_pd; g_to = to_pd }

(* Calling through a switch gate: legal only from the gate's source
   domain; costs a pipeline flush (best case, Table 1). *)
let call_gate cpu ~addr =
  match Hashtbl.find_opt cpu.gates addr with
  | None -> Error "call_gate: not a gate"
  | Some g when g.g_from <> cpu.current.pd_id -> Error "call_gate: wrong source domain"
  | Some g -> begin
      match Hashtbl.find_opt cpu.domains g.g_to with
      | None -> Error "call_gate: unknown target domain"
      | Some target ->
          cpu.pipeline_flushes <- cpu.pipeline_flushes + 1;
          cpu.cross_stack <- g.g_from :: cpu.cross_stack;
          cpu.current <- target;
          Ok ()
    end

let return_gate cpu =
  match cpu.cross_stack with
  | caller :: rest -> begin
      match Hashtbl.find_opt cpu.domains caller with
      | None -> Error "return_gate: caller domain gone"
      | Some pd ->
          cpu.pipeline_flushes <- cpu.pipeline_flushes + 1;
          cpu.cross_stack <- rest;
          cpu.current <- pd;
          Ok ()
    end
  | [] -> Error "return_gate: no crossing to return from"

(* Modelled costs (Table 1). *)
let switch_cost_ns = 40.0 (* one pipeline flush *)

let table_write_cost_ns = 120.0 (* privileged write + PLB invalidate *)

(* Bulk-data sharing cost: one table entry per page-sized chunk. *)
let share_cost_ns ~bytes =
  let pages = max 1 ((bytes + 4095) / 4096) in
  float_of_int pages *. table_write_cost_ns

(* --- structured fault API ---

   Same contract as Minicheri's [_at] variants: denials become {!Fault.t}
   values carrying the fault kind and canonical pc the CODOMs machine
   raises for the equivalent attack, with posture downgrades letting
   downgradeable denials retire (counted under Audit). *)

let denied cpu ?addr ~pc kind =
  if cpu.posture = Fault.Strict || not (Fault.downgradeable kind) then
    Error { Fault.kind; pc; addr }
  else begin
    if cpu.posture = Fault.Audit then cpu.audited <- cpu.audited + 1;
    Ok ()
  end

(* Gate call: a non-gate address is not a legal entry point (a downgrade
   lets the jump retire without a domain switch — there is no target
   table to switch to); a gate used from the wrong source domain is a
   call-permission denial (a downgrade crosses anyway); a gate whose
   target domain is gone is a dangling descriptor — forged-capability
   territory, structural under every posture. *)
let call_gate_at cpu ~pc ~addr =
  match Hashtbl.find_opt cpu.gates addr with
  | None -> denied cpu ~addr ~pc Fault.Not_entry_point
  | Some g ->
      let go () =
        match Hashtbl.find_opt cpu.domains g.g_to with
        | None -> Error { Fault.kind = Fault.Cap_invalid; pc; addr = Some addr }
        | Some target ->
            cpu.pipeline_flushes <- cpu.pipeline_flushes + 1;
            cpu.cross_stack <- g.g_from :: cpu.cross_stack;
            cpu.current <- target;
            Ok ()
      in
      if g.g_from <> cpu.current.pd_id then
        match denied cpu ~addr ~pc (Fault.No_permission Perm.Call) with
        | Error _ as e -> e
        | Ok () -> go ()
      else go ()

(* Gate return: an empty cross stack is the MMP image of a DCS underflow
   — structural, denied under every posture. *)
let return_gate_at cpu ~pc =
  match cpu.cross_stack with
  | caller :: rest -> begin
      match Hashtbl.find_opt cpu.domains caller with
      | None -> Error { Fault.kind = Fault.Cap_invalid; pc; addr = None }
      | Some pd ->
          cpu.pipeline_flushes <- cpu.pipeline_flushes + 1;
          cpu.cross_stack <- rest;
          cpu.current <- pd;
          Ok ()
    end
  | [] -> denied cpu ~pc (Fault.Dcs_bounds "no crossing to return from")

(* Data access against the current domain's permission table.  [perm]
   names the attempted access in the machine's vocabulary for the
   [No_permission] payload; [needed] is the table-side permission. *)
let access_at cpu ~pc ~addr ~needed ~perm =
  if can_access cpu.current ~addr ~perm:needed then Ok ()
  else denied cpu ~addr ~pc (Fault.No_permission perm)
