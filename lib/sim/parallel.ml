(* Work-queue runner over OCaml 5 domains.

   A single atomic cursor hands out task indices; each worker loops
   stealing the next index until the queue is dry.  Every result is
   written into its own slot of a pre-sized array (one writer per slot;
   [Domain.join] publishes the writes to the caller), so the merge is
   order-independent by construction: slot [i] is task [i] no matter
   which worker ran it or when it finished.

   Exceptions are captured per task with their backtraces and re-raised
   on the caller after the queue drains, lowest submission index first,
   so a failing parallel run reports the same task a failing serial run
   would. *)

type 'a outcome = {
  o_id : string;
  o_value : 'a;
  o_wall_s : float;
  o_minor_words : float;
  o_worker : int;
}

let default_jobs () = Domain.recommended_domain_count ()

type 'a slot =
  | Done of 'a outcome
  | Failed of exn * Printexc.raw_backtrace

(* [Gc.minor_words] is a per-domain counter in OCaml 5: the delta is the
   run's own allocation, unpolluted by sibling workers. *)
let run_one tasks slots worker i =
  let id, f = tasks.(i) in
  let m0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  (slots.(i) <-
     (match f () with
     | v ->
         Done
           {
             o_id = id;
             o_value = v;
             o_wall_s = Unix.gettimeofday () -. t0;
             o_minor_words = Gc.minor_words () -. m0;
             o_worker = worker;
           }
     | exception exn -> Failed (exn, Printexc.get_raw_backtrace ())))

let worker_loop tasks slots next worker =
  let n = Array.length tasks in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add next 1 in
    if i >= n then continue := false else run_one tasks slots worker i
  done

let run ?jobs tasks =
  let n = Array.length tasks in
  if n = 0 then [||]
  else begin
    let jobs =
      let j = match jobs with Some j -> j | None -> default_jobs () in
      max 1 (min j n)
    in
    let slots =
      Array.make n
        (Failed (Invalid_argument "Parallel.run: task never ran", Printexc.get_callstack 0))
    in
    let next = Atomic.make 0 in
    let helpers =
      Array.init (jobs - 1) (fun w ->
          Domain.spawn (fun () -> worker_loop tasks slots next (w + 1)))
    in
    worker_loop tasks slots next 0;
    Array.iter Domain.join helpers;
    Array.map
      (function
        | Done o -> o
        | Failed (exn, bt) -> Printexc.raise_with_backtrace exn bt)
      slots
  end

let map ?jobs f xs =
  let tasks =
    Array.of_list (List.mapi (fun i x -> (string_of_int i, fun () -> f x)) xs)
  in
  Array.to_list (Array.map (fun o -> o.o_value) (run ?jobs tasks))
