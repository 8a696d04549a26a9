(* A functional miniature of Mondrian Memory Protection (MMP), for the
   Table 1 comparison (Sec. 4.1 contrasts CODOMs with MMP [63]).

   MMP gives each protection domain a privileged permissions table with
   word-granularity entries; a hardware PLB caches them.  Cross-domain
   calls go through switch/return gates and cost (at best) a pipeline
   flush; sharing bulk data means writing (and later invalidating) table
   entries for every region — the costs Table 1 charges MMP with.

   As in Minicheri, every fallible operation reports a denial as a
   {!Fault.t} carrying the fault kind and canonical pc the CODOMs
   machine raises for the equivalent attack, and [Fault.verdict] decides
   what the cpu's posture does with it. *)

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

(* The miniature's reaction to [Fault.verdict], as Minicheri's: a
   denial is an [Error]; an audited one is counted and proceeds. *)
let deny cpu ?addr ~pc kind =
  match Fault.verdict cpu.posture kind with
  | `Deny -> Error { Fault.kind; pc; addr }
  | `Audit ->
      cpu.audited <- cpu.audited + 1;
      Ok ()
  | `Proceed -> Ok ()

(* Calling through a switch gate: legal only from the gate's source
   domain; costs a pipeline flush (best case, Table 1).  A non-gate
   address is not a legal entry point (a downgrade lets the jump retire
   without a domain switch — there is no target table to switch to); a
   gate used from the wrong source domain is a call-permission denial (a
   downgrade crosses anyway); a gate whose target domain is gone is a
   dangling descriptor — forged-capability territory, structural under
   every posture. *)
let call_gate cpu ~pc ~addr =
  match Hashtbl.find_opt cpu.gates addr with
  | None -> deny cpu ~addr ~pc Fault.Not_entry_point
  | Some g -> (
      let checked =
        if g.g_from <> cpu.current.pd_id then
          deny cpu ~addr ~pc (Fault.No_permission Perm.Call)
        else Ok ()
      in
      match (checked, Hashtbl.find_opt cpu.domains g.g_to) with
      | (Error _ as e), _ -> e
      | Ok (), None -> deny cpu ~addr ~pc Fault.Cap_invalid
      | Ok (), Some target ->
          cpu.pipeline_flushes <- cpu.pipeline_flushes + 1;
          cpu.cross_stack <- g.g_from :: cpu.cross_stack;
          cpu.current <- target;
          Ok ())

(* Gate return: an empty cross stack is the MMP image of a DCS underflow
   and a vanished caller domain a dangling descriptor — both structural,
   denied under every posture. *)
let return_gate cpu ~pc =
  match cpu.cross_stack with
  | caller :: rest -> begin
      match Hashtbl.find_opt cpu.domains caller with
      | None -> deny cpu ~pc Fault.Cap_invalid
      | Some pd ->
          cpu.pipeline_flushes <- cpu.pipeline_flushes + 1;
          cpu.cross_stack <- rest;
          cpu.current <- pd;
          Ok ()
    end
  | [] -> deny cpu ~pc (Fault.Dcs_bounds "no crossing to return from")

(* Modelled costs (Table 1). *)
let switch_cost_ns = Archcmp.pipeline_flush

let table_write_cost_ns = Archcmp.prot_table_update

(* Data access against the current domain's permission table.  [perm]
   names the attempted access in the machine's vocabulary for the
   [No_permission] payload; [needed] is the table-side permission. *)
let access cpu ~pc ~addr ~needed ~perm =
  if can_access cpu.current ~addr ~perm:needed then Ok ()
  else deny cpu ~addr ~pc (Fault.No_permission perm)
