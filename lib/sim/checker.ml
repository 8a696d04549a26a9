(* Online invariant checker over the structured trace stream.

   Registers as the trace sink (Trace.set_sink) and folds every emitted
   event into a small mirror of the scheduler state the event stream
   implies: per-CPU occupancy, suspend/resume balance, per-thread DCS
   depth, per-category cost totals.  Any event inconsistent with the
   mirror raises [Violation] carrying the recent event window, so a
   failure points at the offending schedule slice rather than a digest
   mismatch three layers away.

   The checker is strictly observational — it never touches simulated
   time or the digest — so a clean run with the checker attached is
   byte-identical to one without it.

   Invariant catalogue (names are the [v_invariant] strings):
   - "time-regression":   engine/kernel event timestamps never move
     backwards.  [Sched]/[Spawn] are exempt: they are queue events
     stamped with their (future) due time.  Machine events ([Fault],
     [Domain_cross], [Dcs_*]) are also exempt: they are stamped with the
     executing context's private cost clock.
   - "double-resume":     at no prefix do resumes exceed suspends.
   - "lost-wakeup":       at a quiescent finish every suspend has a
     matching resume.
   - "duplicate-switch":  a [Ctxsw] claiming to switch a CPU to the
     thread it already runs.
   - "switch-mismatch":   a [Ctxsw] whose outgoing thread ([arg]) is not
     the thread last observed on that CPU.
   - "charge-misattribution": a thread charges cost on a CPU currently
     running someone else.
   - "two-cpu-overlap":   a thread charges cost on one CPU while a
     charge interval it opened on another CPU is still running — the
     observable form of "resumed on two CPUs".
   - "dcs-underflow":     a [Dcs_pop] with no frame to pop.
   - "dcs-imbalance":     a [Dcs_push]/[Dcs_pop] whose carried resulting
     depth disagrees with the mirrored stack depth.
   - "dcs-crossing-imbalance": a return domain crossing where the DCS
     depth differs from its depth when the matching call crossing
     entered the domain (Sec. 5.2.3's integrity discipline).
   - "charge-conservation": at finish, per-category charge-event totals
     must equal the kernel's lifetime [Breakdown] totals.
   - "xtag-no-authority":  an [Xtag_access] (data access crossing a tag
     boundary) whose authority code says nothing granted it — neither an
     APL entry, nor a capability, nor an explicit posture downgrade.
     The machine never emits code 0, so this only trips on corrupted
     streams or a protection-check bug.
   - "priv-outside-kernel": a [Priv_op] whose authority code says the
     executing page held no privileged-capability bit and no posture
     override applied.
   - "revocation-completeness": a [Cap_use] exercising an asynchronous
     capability whose creation-stamped revocation value is older than
     the latest [Cap_revoke] observed for that (owner tag, counter) —
     i.e. a revoked capability that still conferred authority. *)

type violation = {
  v_invariant : string;
  v_detail : string;
  v_index : int; (* 0-based index of the offending event in the stream *)
  v_window : Trace.event list; (* recent events, offender last *)
}

exception Violation of violation

let pp_violation ppf v =
  Fmt.pf ppf "@[<v>invariant %S violated at event %d: %s@,window:@,%a@]"
    v.v_invariant v.v_index v.v_detail
    (Fmt.list ~sep:Fmt.cut (fun ppf e -> Fmt.pf ppf "  %a" Trace.pp_event e))
    v.v_window

let () =
  Printexc.register_printer (function
    | Violation v -> Some (Fmt.str "%a" pp_violation v)
    | _ -> None)

(* Events a violation report carries, offender last. *)
let window_cap = 16

type t = {
  window : Trace.event Queue.t;
  mutable seen : int;
  mutable watermark : float;
  mutable suspends : int;
  mutable resumes : int;
  cur : (int, int) Hashtbl.t; (* cpu -> tid entitled to charge on it *)
  last : (int, int) Hashtbl.t; (* cpu -> last thread switched in *)
  busy : (int, int * float) Hashtbl.t; (* tid -> (cpu, busy-until ts) *)
  dcs_depth : (int, int) Hashtbl.t; (* ctx/tid -> mirrored DCS depth *)
  cross : (int, (int * int) Stack.t) Hashtbl.t;
      (* ctx/tid -> stack of (origin tag, DCS depth at entry) *)
  charges : Breakdown.t; (* per-category sum of all Charge events *)
  revoked : (int * int, int) Hashtbl.t;
      (* (owner tag, counter) -> latest post-revoke table value *)
}

let create () =
  {
    window = Queue.create ();
    seen = 0;
    watermark = neg_infinity;
    suspends = 0;
    resumes = 0;
    cur = Hashtbl.create 8;
    last = Hashtbl.create 8;
    busy = Hashtbl.create 64;
    dcs_depth = Hashtbl.create 16;
    cross = Hashtbl.create 16;
    charges = Breakdown.create ();
    revoked = Hashtbl.create 16;
  }

let events_seen t = t.seen

let suspends t = t.suspends

let resumes t = t.resumes

let fail t inv detail =
  raise
    (Violation
       {
         v_invariant = inv;
         v_detail = detail;
         v_index = t.seen - 1;
         v_window = List.of_seq (Queue.to_seq t.window);
       })

(* Timestamps are exact replays of float arithmetic, but give charge
   intervals a hair of slack so back-to-back events at one instant never
   trip on representation noise. *)
let eps = 1e-6

let on_charge t (ev : Trace.event) =
  (match ev.e_cat with
  | Some c -> Breakdown.charge t.charges c ev.e_dur
  | None -> ());
  if ev.e_cpu >= 0 then begin
    if ev.e_tid < 0 then
      (* Idle interval closing on this CPU: nobody is current anymore
         (the next charge is the incoming thread's idle-exit cost). *)
      Hashtbl.remove t.cur ev.e_cpu
    else begin
      (match Hashtbl.find_opt t.busy ev.e_tid with
      | Some (cpu', until') when cpu' <> ev.e_cpu && ev.e_ts < until' -. eps ->
          fail t "two-cpu-overlap"
            (Fmt.str
               "tid %d charges on cpu %d at %.1f while busy on cpu %d until \
                %.1f"
               ev.e_tid ev.e_cpu ev.e_ts cpu' until')
      | _ -> ());
      (match Hashtbl.find_opt t.busy ev.e_tid with
      | Some (cpu', until') when cpu' = ev.e_cpu ->
          Hashtbl.replace t.busy ev.e_tid
            (ev.e_cpu, Float.max until' (ev.e_ts +. ev.e_dur))
      | _ -> Hashtbl.replace t.busy ev.e_tid (ev.e_cpu, ev.e_ts +. ev.e_dur));
      (match Hashtbl.find_opt t.cur ev.e_cpu with
      | Some c when c <> ev.e_tid ->
          fail t "charge-misattribution"
            (Fmt.str "tid %d charges on cpu %d currently running tid %d"
               ev.e_tid ev.e_cpu c)
      | Some _ -> ()
      | None ->
          Hashtbl.replace t.cur ev.e_cpu ev.e_tid;
          (* Bootstrap: a CPU's first-ever occupant is also its "last
             switched-in" thread (the kernel emits no Ctxsw for it). *)
          if not (Hashtbl.mem t.last ev.e_cpu) then
            Hashtbl.replace t.last ev.e_cpu ev.e_tid)
    end
  end

let on_ctxsw t (ev : Trace.event) =
  if ev.e_cpu >= 0 && ev.e_tid >= 0 then begin
    if ev.e_arg = ev.e_tid then
      fail t "duplicate-switch"
        (Fmt.str "cpu %d switches to tid %d it already runs" ev.e_cpu ev.e_tid);
    (match Hashtbl.find_opt t.last ev.e_cpu with
    | Some l when l <> ev.e_arg ->
        fail t "switch-mismatch"
          (Fmt.str
             "cpu %d switches %d -> %d but last observed thread was %d"
             ev.e_cpu ev.e_arg ev.e_tid l)
    | _ -> ());
    Hashtbl.replace t.last ev.e_cpu ev.e_tid;
    Hashtbl.replace t.cur ev.e_cpu ev.e_tid
  end

let dcs_event t (ev : Trace.event) =
  let tid = ev.e_tid in
  let known = Hashtbl.find_opt t.dcs_depth tid in
  (match ev.e_kind with
  | Trace.Dcs_push ->
      (match known with
      | Some d when ev.e_arg <> d + 1 ->
          fail t "dcs-imbalance"
            (Fmt.str "ctx %d push: depth %d -> claimed %d" tid d ev.e_arg)
      | _ -> if ev.e_arg < 1 then fail t "dcs-imbalance" "push to depth < 1")
  | Trace.Dcs_pop -> (
      match known with
      | Some d when d <= 0 ->
          fail t "dcs-underflow" (Fmt.str "ctx %d pops an empty DCS" tid)
      | Some d when ev.e_arg <> d - 1 ->
          fail t "dcs-imbalance"
            (Fmt.str "ctx %d pop: depth %d -> claimed %d" tid d ev.e_arg)
      | _ -> if ev.e_arg < 0 then fail t "dcs-underflow" "pop to depth < 0")
  | _ -> if ev.e_arg < 0 then fail t "dcs-imbalance" "adjust to depth < 0");
  Hashtbl.replace t.dcs_depth tid ev.e_arg

(* Bracket-match domain crossings: crossing back to the tag we came from
   must find the DCS at the depth it had when the domain was entered. *)
let on_cross t (ev : Trace.event) =
  let stack =
    match Hashtbl.find_opt t.cross ev.e_tid with
    | Some s -> s
    | None ->
        let s = Stack.create () in
        Hashtbl.replace t.cross ev.e_tid s;
        s
  in
  let depth =
    match Hashtbl.find_opt t.dcs_depth ev.e_tid with Some d -> d | None -> 0
  in
  match Stack.top_opt stack with
  | Some (origin, entry_depth) when origin = ev.e_tag ->
      ignore (Stack.pop stack);
      if depth <> entry_depth then
        fail t "dcs-crossing-imbalance"
          (Fmt.str
             "ctx %d returns %d -> %d with DCS depth %d (entered at depth %d)"
             ev.e_tid ev.e_arg ev.e_tag depth entry_depth)
  | _ -> Stack.push (ev.e_arg, depth) stack

(* Isolation invariants over the machine's protection-event stream.  The
   machine stamps a non-zero authority code on every [Xtag_access] /
   [Priv_op] it lets retire (1 = capability, 2 = APL / priv bit, 3 =
   posture downgrade), so code 0 marks an access nothing granted: a
   corrupted stream or a protection-check bug, never a clean run. *)
let on_xtag t (ev : Trace.event) =
  if ev.e_cpu = 0 then
    fail t "xtag-no-authority"
      (Fmt.str "ctx %d: tag %d reached tag %d data with no granting authority"
         ev.e_tid ev.e_arg ev.e_tag)

let on_priv t (ev : Trace.event) =
  if ev.e_cpu = 0 then
    fail t "priv-outside-kernel"
      (Fmt.str
         "ctx %d retired a privileged op at pc=0x%x without the priv bit"
         ev.e_tid ev.e_arg)

(* Revocation completeness: once a [Cap_revoke] bumps (owner tag,
   counter) to value v, no later [Cap_use] may carry a creation stamp
   below v — such a capability was revoked before it was exercised. *)
let on_cap_revoke t (ev : Trace.event) =
  Hashtbl.replace t.revoked (ev.e_tag, ev.e_arg) ev.e_cpu

let on_cap_use t (ev : Trace.event) =
  match Hashtbl.find_opt t.revoked (ev.e_tag, ev.e_arg) with
  | Some v when ev.e_cpu < v ->
      fail t "revocation-completeness"
        (Fmt.str
           "ctx %d exercised capability (tag %d, counter %d) stamped %d \
            after revocation bumped it to %d"
           ev.e_tid ev.e_tag ev.e_arg ev.e_cpu v)
  | _ -> ()

(* Feed one event: what [attach] arranges to happen on every emit. *)
let on_event t (ev : Trace.event) =
  t.seen <- t.seen + 1;
  Queue.add ev t.window;
  if Queue.length t.window > window_cap then ignore (Queue.pop t.window);
  (match ev.e_kind with
  | Trace.Sched | Trace.Spawn
  | Trace.Fault | Trace.Domain_cross
  | Trace.Dcs_push | Trace.Dcs_pop | Trace.Dcs_adjust
  | Trace.Xtag_access | Trace.Priv_op | Trace.Cap_revoke | Trace.Cap_use ->
      () (* future-stamped queue events / per-ctx cost clocks *)
  | Trace.Resume | Trace.Suspend | Trace.Ctxsw | Trace.Ipi | Trace.Syscall
  | Trace.Charge ->
      if ev.e_ts < t.watermark -. eps then
        fail t "time-regression"
          (Fmt.str "event at %.3f after watermark %.3f" ev.e_ts t.watermark);
      if ev.e_ts > t.watermark then t.watermark <- ev.e_ts);
  match ev.e_kind with
  | Trace.Suspend -> t.suspends <- t.suspends + 1
  | Trace.Resume ->
      t.resumes <- t.resumes + 1;
      if t.resumes > t.suspends then
        fail t "double-resume"
          (Fmt.str "%d resumes for %d suspends" t.resumes t.suspends)
  | Trace.Ctxsw -> on_ctxsw t ev
  | Trace.Charge -> on_charge t ev
  | Trace.Dcs_push | Trace.Dcs_pop | Trace.Dcs_adjust -> dcs_event t ev
  | Trace.Domain_cross -> on_cross t ev
  | Trace.Xtag_access -> on_xtag t ev
  | Trace.Priv_op -> on_priv t ev
  | Trace.Cap_revoke -> on_cap_revoke t ev
  | Trace.Cap_use -> on_cap_use t ev
  | Trace.Sched | Trace.Spawn | Trace.Ipi | Trace.Syscall | Trace.Fault -> ()

let attach t trace = Trace.set_sink trace (Some (on_event t))

let detach trace = Trace.set_sink trace None

(* End-of-run checks.  [quiescent] asserts every suspend was resumed
   (drained runs); pass [false] for deadline-stopped runs where threads
   legitimately remain parked.  [expect] compares the per-category sums
   of the observed Charge events against an externally accumulated
   Breakdown (the kernel's lifetime totals): both sides add the same
   addends in the same order, so the tolerance only covers noise from a
   caller-supplied reference computed differently. *)
let finish ?(quiescent = true) ?expect t =
  if quiescent && t.suspends <> t.resumes then
    fail t "lost-wakeup"
      (Fmt.str "%d suspends but %d resumes at quiescent finish" t.suspends
         t.resumes);
  match expect with
  | None -> ()
  | Some bd ->
      List.iter
        (fun cat ->
          let want = Breakdown.get bd cat in
          let got = Breakdown.get t.charges cat in
          let tol = 1e-6 +. (1e-9 *. Float.max (abs_float want) (abs_float got)) in
          if abs_float (want -. got) > tol then
            fail t "charge-conservation"
              (Fmt.str "%s: charge events total %.6f but breakdown says %.6f"
                 (Breakdown.category_name cat) got want))
        Breakdown.all_categories
