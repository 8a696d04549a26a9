(* Tests for intra-simulation sharding (ROADMAP item 2): the
   conservative parallel coordinator [Dipc_sim.Shard] and its openload
   decomposition.

   The contract under test is digest equality: serial, 2-shard and
   4-shard executions of the same model — on one domain or several —
   must be byte-identical.  qcheck properties sweep random scenarios
   through both paths; directed cases pin the edges (window-bound ties,
   a shard draining mid-window); and mutation smokes in the spirit of
   test_checker break the protocol on purpose (lookahead lie, wrong
   merge tie-break, enforcement off) and assert each defence trips
   loudly. *)

module Shard = Dipc_sim.Shard
module Trace = Dipc_sim.Trace
module Checker = Dipc_sim.Checker
module Parallel = Dipc_sim.Parallel
module Heap = Dipc_sim.Heap
module OL = Dipc_workloads.Openload

(* --- differential: openload serial vs sharded --- *)

let ol_params ?(seed = 42) ?(sessions = 1500) ?(load = 0.8) ?(servers = 4)
    ?(max_extra = 2) ?(arrival = OL.Poisson) () =
  OL.default_params ~seed ~sessions ~servers ~offered_load:load ~arrival
    ~max_extra_reqs:max_extra ~service_ns:2650. ()

let ol_signature r = (r.OL.r_digest, r.OL.r_requests, r.OL.r_makespan_ns)

let qcheck_openload_differential =
  QCheck.Test.make ~name:"openload: serial == 2-shard == 4-shard digests"
    ~count:40
    QCheck.(
      quad (int_bound 9999)
        (int_range 50 2500)
        (float_range 0.3 1.05)
        (pair (int_range 1 5) (int_range 0 3)))
    (fun (seed, sessions, load, (servers, max_extra)) ->
      let arrival =
        match seed mod 3 with
        | 0 -> OL.Poisson
        | 1 -> OL.Bursty
        | _ -> OL.Diurnal
      in
      let p = ol_params ~seed ~sessions ~load ~servers ~max_extra ~arrival () in
      let reference = ol_signature (OL.run p) in
      List.for_all
        (fun (shards, par) ->
          ol_signature (OL.run_sharded ~shards ~par p) = reference)
        [ (2, false); (2, true); (4, false); (4, true) ])

(* Multi-window pipelining: enough sessions that the admission source
   needs several 8192-session batches, so the serial/sharded equality
   actually crosses window barriers. *)
let test_openload_multiwindow () =
  let p = ol_params ~sessions:20_000 ~load:0.95 () in
  let reference = ol_signature (OL.run p) in
  Alcotest.(check bool) "2-shard, one domain" true
    (ol_signature (OL.run_sharded ~shards:2 ~par:false p) = reference);
  Alcotest.(check bool) "2-shard, pipelined domains" true
    (ol_signature (OL.run_sharded ~shards:2 ~par:true p) = reference)

(* --- directed synthetic steppers --- *)

(* A recorder shard in the mould of the openload station: local events
   and inbox messages merged by time, local first on a tie (the serial
   [ready <= arr_t] rule). *)
let recorder ?(on_msg = fun _ _ -> ()) locals out =
  let pending = ref locals in
  {
    Shard.st_next =
      (fun () -> match !pending with [] -> infinity | t :: _ -> t);
    st_lookahead = infinity;
    st_step =
      (fun ~inbox_at ~inbox_pay ~inbox_len ~upto ~emit:_ ->
        let cursor = ref 0 in
        let n = ref 0 in
        let continue = ref true in
        while !continue do
          let m_t =
            if !cursor < inbox_len then inbox_at.(!cursor) else infinity
          in
          match !pending with
          | l :: rest when l <= m_t ->
              if l > upto then continue := false
              else begin
                out := `Local l :: !out;
                pending := rest;
                incr n
              end
          | _ ->
              if !cursor >= inbox_len || m_t > upto then continue := false
              else begin
                out := `Msg (inbox_pay.(!cursor), m_t) :: !out;
                on_msg inbox_at.(!cursor) inbox_pay.(!cursor);
                incr cursor;
                incr n
              end
        done;
        while !cursor < inbox_len do
          out := `Msg (inbox_pay.(!cursor), inbox_at.(!cursor)) :: !out;
          on_msg inbox_at.(!cursor) inbox_pay.(!cursor);
          incr cursor;
          incr n
        done;
        !n);
  }

(* A source with one local event at t=0 that emits [msgs] = (dst, at,
   pay) list in order, then drains. *)
let one_shot_source ~lookahead msgs =
  let fired = ref false in
  {
    Shard.st_next = (fun () -> if !fired then infinity else 0.);
    st_lookahead = lookahead;
    st_step =
      (fun ~inbox_at:_ ~inbox_pay:_ ~inbox_len:_ ~upto ~emit ->
        if (not !fired) && 0. <= upto then begin
          fired := true;
          List.iter (fun (dst, at, pay) -> emit ~dst ~at pay) msgs;
          1
        end
        else 0);
  }

(* Simultaneous cross-shard timestamps: the merge must order equal
   times by (source shard, emission seqno) — and the Reversed mutation
   must visibly reorder them (what makes the tie-break digest-visible
   and therefore CI-pinned). *)
let test_merge_tiebreak () =
  let run tiebreak =
    let out = ref [] in
    let src i =
      one_shot_source ~lookahead:1.
        [ (2, 1., (i * 10) + 0); (2, 1., (i * 10) + 1) ]
    in
    let t =
      Shard.create ~tiebreak [| src 0; src 1; recorder [] out |]
    in
    Shard.run t;
    List.rev_map (function `Msg (p, _) -> p | `Local _ -> -1) !out
  in
  Alcotest.(check (list int)) "(time, src, seq) order" [ 0; 1; 10; 11 ]
    (run Shard.Src_then_seq);
  Alcotest.(check (list int)) "Reversed tie-break is observably different"
    [ 11; 10; 1; 0 ] (run Shard.Reversed)

(* A shard whose local heap drains mid-window while messages keep
   arriving, plus messages at exactly the window bound ordered after
   the receiver's local events at that instant. *)
let test_drain_midwindow_and_bound_ties () =
  let out = ref [] in
  let t_src = ref 0 in
  let source =
    {
      Shard.st_next =
        (fun () -> if !t_src < 10 then float_of_int !t_src else infinity);
      st_lookahead = 2.;
      st_step =
        (fun ~inbox_at:_ ~inbox_pay:_ ~inbox_len:_ ~upto ~emit ->
          let n = ref 0 in
          while !t_src < 10 && float_of_int !t_src <= upto do
            emit ~dst:1 ~at:(float_of_int !t_src +. 2.) !t_src;
            incr t_src;
            incr n
          done;
          !n);
    }
  in
  let t = Shard.create [| source; recorder [ 1.; 2.; 3. ] out |] in
  Shard.run t;
  let expected =
    [
      `Local 1.; `Local 2.;  (* round 1: locals up to the bound 2 *)
      `Msg (0, 2.); `Local 3.; `Msg (1, 3.); `Msg (2, 4.);
      (* local heap now drained; messages keep the shard alive *)
      `Msg (3, 5.); `Msg (4, 6.); `Msg (5, 7.);
      `Msg (6, 8.); `Msg (7, 9.); `Msg (8, 10.); `Msg (9, 11.);
    ]
  in
  Alcotest.(check bool) "merged order with bound ties" true
    (List.rev !out = expected);
  Alcotest.(check int) "all ten messages crossed the barrier" 10
    (Shard.delivered t);
  Alcotest.(check bool) "multiple windows ran" true (Shard.rounds t > 2)

(* --- mutation smokes (in the spirit of test_checker) --- *)

(* Mutation: a shard's real latency shrinks below its declared
   lookahead — the emission lands inside the window it promised to stay
   out of, and the coordinator must refuse loudly. *)
let test_causality_violation_caught () =
  let liar = one_shot_source ~lookahead:10. [ (1, 0.5, 0) ] in
  let t = Shard.create [| liar; recorder [] (ref []) |] in
  match Shard.run t with
  | () -> Alcotest.fail "lookahead lie was accepted"
  | exception Shard.Causality_violation msg ->
      Alcotest.(check bool) "message names the lookahead promise" true
        (String.length msg > 0)

(* Mutation: enforcement off — the same lie slips through the barrier,
   and the downstream trace checker must catch the corruption as a
   time-regression instead. *)
let test_unenforced_lie_caught_by_checker () =
  let tr = Trace.create () in
  let chk = Checker.create () in
  Checker.attach chk tr;
  let make_model ~enforce =
    let t_src = ref 0. in
    let source =
      {
        Shard.st_next = (fun () -> if !t_src < 12. then !t_src else infinity);
        st_lookahead = 4.;
        st_step =
          (fun ~inbox_at:_ ~inbox_pay:_ ~inbox_len:_ ~upto ~emit ->
            let n = ref 0 in
            while !t_src < 12. && !t_src <= upto do
              (* first a legal far-future message, then one in the past
                 of the stream already delivered: the lie *)
              let at = if !t_src = 0. then 10. else 1. in
              emit ~dst:1 ~at (int_of_float !t_src);
              t_src := !t_src +. 6.;
              incr n
            done;
            !n);
      }
    in
    let sink =
      recorder
        ~on_msg:(fun at _ -> Trace.emit_bare tr ~ts:at Trace.Syscall)
        [] (ref [])
    in
    Shard.create ~enforce [| source; sink |]
  in
  (match Shard.run (make_model ~enforce:true) with
  | () -> Alcotest.fail "enforcement should have tripped"
  | exception Shard.Causality_violation _ -> ());
  (match Shard.run (make_model ~enforce:false) with
  | () -> Alcotest.fail "checker should have tripped"
  | exception Checker.Violation v ->
      Alcotest.(check string) "violation class" "time-regression"
        v.Checker.v_invariant);
  Checker.detach tr

(* Mutation: a stepper that breaks the st_next contract (reports work
   pending but never does any) must stall loudly, not hang. *)
let test_stall_detected () =
  let zombie =
    {
      Shard.st_next = (fun () -> 5.);
      st_lookahead = 1.;
      st_step = (fun ~inbox_at:_ ~inbox_pay:_ ~inbox_len:_ ~upto:_ ~emit:_ -> 0);
    }
  in
  Alcotest.(check bool) "stall raises" true
    (match Shard.run (Shard.create [| zombie |]) with
    | () -> false
    | exception Shard.Stalled _ -> true)

(* --- exception propagation across domains --- *)

exception Boom of int

let qcheck_run_lowest_index_exception =
  QCheck.Test.make
    ~name:"Parallel.run raises the lowest-index failure"
    ~count:120
    QCheck.(
      triple (int_range 1 20) (int_range 1 8) (int_bound 1_000_000))
    (fun (n, jobs, salt) ->
      (* salt picks a nonempty failing subset deterministically *)
      let fails i = (i + salt) mod 3 = 0 in
      let lowest = ref None in
      for i = n - 1 downto 0 do
        if fails i then lowest := Some i
      done;
      match !lowest with
      | None -> true
      | Some want ->
          let got =
            match
              Parallel.run ~jobs
                (Array.init n (fun i ->
                     ( Printf.sprintf "task%d" i,
                       fun () -> if fails i then raise (Boom i) )))
            with
            | _ -> None
            | exception Boom i -> Some i
          in
          got = Some want)

let test_pool_exception_deterministic () =
  (* A raising shard must surface the lowest shard index on the main
     domain, whether the bodies run serially or on the persistent
     worker pool. *)
  let run par =
    let bomb i =
      {
        Shard.st_next = (fun () -> 0.);
        st_lookahead = 1.;
        st_step =
          (fun ~inbox_at:_ ~inbox_pay:_ ~inbox_len:_ ~upto:_ ~emit:_ ->
            raise (Boom i));
      }
    in
    let quiet = recorder [] (ref []) in
    match
      Shard.run ~par (Shard.create [| quiet; bomb 1; quiet; bomb 3 |])
    with
    | () -> None
    | exception Boom i -> Some i
  in
  Alcotest.(check (option int)) "serial" (Some 1) (run false);
  Alcotest.(check (option int)) "pool" (Some 1) (run true)

(* --- heap pre-sizing (the sharded openload station sizes its queue up
   front) --- *)

let test_heap_capacity_presize () =
  let a = Heap.create () in
  let b = Heap.create ~capacity:64 () in
  for i = 99 downto 0 do
    Heap.push a ~time:(float_of_int i) i;
    Heap.push b ~time:(float_of_int i) i
  done;
  let drain h =
    let out = ref [] in
    while not (Heap.is_empty h) do
      out := Heap.pop_min h :: !out
    done;
    List.rev !out
  in
  Alcotest.(check (list int)) "pre-sized heap pops identically" (drain a)
    (drain b)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "shard.differential",
      [
        Alcotest.test_case "openload multi-window pipelining" `Quick
          test_openload_multiwindow;
      ]
      @ qsuite [ qcheck_openload_differential ] );
    ( "shard.protocol",
      [
        Alcotest.test_case "merge tie-break (time, src, seq)" `Quick
          test_merge_tiebreak;
        Alcotest.test_case "drain mid-window + bound ties" `Quick
          test_drain_midwindow_and_bound_ties;
        Alcotest.test_case "lookahead lie raises Causality_violation" `Quick
          test_causality_violation_caught;
        Alcotest.test_case "unenforced lie caught by checker" `Quick
          test_unenforced_lie_caught_by_checker;
        Alcotest.test_case "contract breach stalls loudly" `Quick
          test_stall_detected;
        Alcotest.test_case "pool exception lowest-index deterministic" `Quick
          test_pool_exception_deterministic;
        Alcotest.test_case "heap capacity pre-sizing" `Quick
          test_heap_capacity_presize;
      ]
      @ qsuite [ qcheck_run_lowest_index_exception ] );
  ]
