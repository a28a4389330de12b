(* Spawn-once domain pool. Stdlib only: Domain + Atomic + Mutex/Condition.

   Synchronization design, kept small enough to audit:

   - Each [run] builds a fresh [batch] record (task array + claim counter
     + completion counter) and publishes it by storing it in [cur] and
     bumping the SC generation counter [gen]. A worker that observes the
     new generation therefore also observes the fully-built batch
     (sequentially-consistent atomics give happens-before).
   - Tasks are claimed with [Atomic.fetch_and_add] on the batch's own
     counter, so a straggler still waking from a previous generation can
     only ever touch its own (exhausted) batch, never steal from or
     corrupt the next one.
   - Completion is an atomic count-up; the caller participates in
     draining, then spins briefly and finally blocks on [donec]. Workers
     broadcast [donec] after pushing the count to the total. Because only
     the caller starts generations, the task array a worker reads in its
     epilogue is still the one it drained.
   - Exceptions are captured under the mutex (first one wins) and
     re-raised in the caller after the barrier, so a failing task cannot
     hang or kill a worker domain. *)

type batch = {
  tasks : (unit -> unit) array;
  next : int Atomic.t; (* claim counter *)
  fin : int Atomic.t; (* completed-task count *)
}

let empty_batch = { tasks = [||]; next = Atomic.make 0; fin = Atomic.make 0 }

module Pool = struct
  type t = {
    mutable workers : unit Domain.t list;
    mutable nworkers : int;
    m : Mutex.t;
    work : Condition.t; (* signalled: new generation or stop *)
    donec : Condition.t; (* signalled: a batch completed *)
    gen : int Atomic.t;
    mutable cur : batch;
    stop : bool Atomic.t;
    mutable err : exn option;
  }

  let domains t = t.nworkers + 1

  (* Iterations of [cpu_relax] before falling back to the condvar. Long
     enough to catch the next firing of a hot batch stream, short enough
     not to burn a core while idle (or to fight the caller for the only
     core on a single-CPU host). *)
  let spin_budget = 2_000

  let drain t b =
    let n = Array.length b.tasks in
    let rec loop () =
      let i = Atomic.fetch_and_add b.next 1 in
      if i < n then begin
        (try b.tasks.(i) ()
         with e ->
           Mutex.lock t.m;
           if t.err = None then t.err <- Some e;
           Mutex.unlock t.m);
        Atomic.incr b.fin;
        loop ()
      end
    in
    loop ();
    (* wake a caller blocked on the barrier once the batch is complete *)
    if Atomic.get b.fin >= n then begin
      Mutex.lock t.m;
      Condition.broadcast t.donec;
      Mutex.unlock t.m
    end

  let worker t () =
    let mygen = ref (Atomic.get t.gen) in
    let running = ref true in
    while !running do
      (* wait for the next generation: spin, then block *)
      let state = ref `Spin in
      let tries = ref 0 in
      while !state = `Spin do
        if Atomic.get t.stop then state := `Stop
        else begin
          let g = Atomic.get t.gen in
          if g <> !mygen then begin
            mygen := g;
            state := `Work
          end
          else begin
            incr tries;
            if !tries >= spin_budget then begin
              Mutex.lock t.m;
              while
                (not (Atomic.get t.stop)) && Atomic.get t.gen = !mygen
              do
                Condition.wait t.work t.m
              done;
              Mutex.unlock t.m
            end
            else Domain.cpu_relax ()
          end
        end
      done;
      if !state = `Stop then running := false else drain t t.cur
    done

  let add_workers t k =
    for _ = 1 to k do
      t.workers <- Domain.spawn (fun () -> worker t ()) :: t.workers
    done;
    t.nworkers <- t.nworkers + k

  let create ~domains =
    if domains < 1 then invalid_arg "Par.Pool.create: domains must be >= 1";
    let t =
      {
        workers = [];
        nworkers = 0;
        m = Mutex.create ();
        work = Condition.create ();
        donec = Condition.create ();
        gen = Atomic.make 0;
        cur = empty_batch;
        stop = Atomic.make false;
        err = None;
      }
    in
    add_workers t (domains - 1);
    t

  let ensure t ~domains =
    if domains > t.nworkers + 1 then add_workers t (domains - t.nworkers - 1)

  let run t tasks =
    let n = Array.length tasks in
    if n = 0 then ()
    else if n = 1 then tasks.(0) ()
    else begin
      let b = { tasks; next = Atomic.make 0; fin = Atomic.make 0 } in
      t.err <- None;
      t.cur <- b;
      Atomic.incr t.gen;
      Mutex.lock t.m;
      Condition.broadcast t.work;
      Mutex.unlock t.m;
      drain t b;
      (* barrier: wait for workers still finishing their claimed tasks *)
      let tries = ref 0 in
      while Atomic.get b.fin < n do
        incr tries;
        if !tries >= spin_budget then begin
          Mutex.lock t.m;
          while Atomic.get b.fin < n do
            Condition.wait t.donec t.m
          done;
          Mutex.unlock t.m
        end
        else Domain.cpu_relax ()
      done;
      match t.err with
      | Some e ->
          t.err <- None;
          raise e
      | None -> ()
    end

  let shutdown t =
    Atomic.set t.stop true;
    Mutex.lock t.m;
    Condition.broadcast t.work;
    Mutex.unlock t.m;
    List.iter Domain.join t.workers;
    t.workers <- [];
    t.nworkers <- 0
end

let global = ref None
let global_lock = Mutex.create ()

let get ~domains =
  Mutex.lock global_lock;
  let p =
    match !global with
    | Some p ->
        Pool.ensure p ~domains;
        p
    | None ->
        let p = Pool.create ~domains in
        global := Some p;
        at_exit (fun () ->
            match !global with
            | Some p ->
                global := None;
                Pool.shutdown p
            | None -> ());
        p
  in
  Mutex.unlock global_lock;
  p

let default_domains () =
  match Sys.getenv_opt "DIVM_DOMAINS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some d when d >= 1 -> d
    | _ -> 1)
  | None -> 1
