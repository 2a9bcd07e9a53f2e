(* The end-to-end benchmark: one seeded workload per run, every output
   checked apart from the program, one JSON result line on stdout.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   tables45-mlclip calls, in process, the same entry points as [hypart
   partition] and [hypart eco]; daemon-mixed drives a [hypart serve]
   child process over HTTP with the daemon's own client.  See README.md
   for the workloads, metrics and reference figures. *)

module H = Hypart_hypergraph.Hypergraph
module Io = Hypart_hypergraph.Netlist_io
module Suite = Hypart_generator.Ibm_suite
module Problem = Hypart_partition.Problem
module Bip = Hypart_partition.Bipartition
module Engine = Hypart_engine.Engine
module Rng = Hypart_rng.Rng
module Fp = Hypart_lab.Fingerprint
module Delta = Hypart_delta.Delta
module Delta_gen = Hypart_delta.Delta_gen
module Patch = Hypart_delta.Patch
module Eco = Hypart_delta.Eco
module Tel = Hypart_telemetry.Telemetry
module Trace = Hypart_telemetry.Trace
module Metrics = Hypart_telemetry.Metrics
module J = Hypart_telemetry.Json_in
module Client = Hypart_server.Client
module Http = Hypart_server.Http
module Check = Perfbench_check.Check

let tolerance = 0.02

(* the share of an instance one ECO delta edits *)
let delta_fraction = 0.01

(* /delta steps stacked on each fresh daemon answer *)
let chain_length = 4

(* distinct delta chains per daemon instance; round r uses chain
   r mod chain_variants, so a run samples many edit regions instead of
   repeating a few *)
let chain_variants = 16

(* daemon-mixed runs a fixed number of rounds, one per this many seconds
   of the run length: a round took 2.8-3.8 s of the daemon's CPU time
   over twenty runs on a 2-vCPU VM.  Rounds differ in cost (each has its own seeds
   and delta chain), so runs stopped by a clock sampled longer or shorter
   prefixes of them as the host slowed them down, and that alone moved
   their medians by ~8%.  The daemon's peak memory grows with the rounds
   too, since its dedup cache keeps every answer.  Only a host slow
   enough to take more than [daemon_wall_cap] times the run length stops
   a run early, so that runs stay within their time. *)
let daemon_round_s = 4.0
let daemon_wall_cap = 1.5

(* byte-identical duplicates of each fresh daemon partition *)
let duplicates = 6

(* setups per run; setup_s is their median *)
let setups = 3
let hypart_exe = Filename.concat "_build" (Filename.concat "default" "bin/hypart.exe")

(* ------------------------------------------------------------------ *)
(* Seeds, clocks, statistics                                           *)

let mix z =
  let z = (z lxor (z lsr 31)) * 0x3f58476d1ce4e5b9 in
  let z = (z lxor (z lsr 29)) * 0x14d049bb133111eb in
  z lxor (z lsr 32)

(* a positive seed derived from the run seed and a path of indices *)
let derive seed path =
  1 + (List.fold_left (fun acc x -> mix ((acc * 31) + x + 1)) (mix seed) path
      land 0x3fffffff)

(* CLOCK_MONOTONIC, read in nanoseconds *)
let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* CPU seconds of another process: the run time of its tasks, from
   /proc/<pid>/task/*/schedstat.  Like [Sys.time] for this process, it
   leaves out the time the virtual machine's CPUs were taken by the host
   (steal), which wall time counts. *)
let cpu_of pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc task ->
      match open_in (Filename.concat (Filename.concat dir task) "schedstat") with
      | ic ->
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> acc +. (Scanf.sscanf (input_line ic) "%f" Fun.id /. 1e9))
      | exception Sys_error _ -> acc (* a task that has ended *))
    0. (Sys.readdir dir)

let quantile q = function
  | [] -> nan
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let pos = q *. float_of_int (Array.length a - 1) in
    let i = int_of_float (Float.floor pos) in
    let j = min (i + 1) (Array.length a - 1) in
    a.(i) +. ((pos -. float_of_int i) *. (a.(j) -. a.(i)))

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let fsum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs

let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        else find ()
      in
      find ())

(* ------------------------------------------------------------------ *)
(* Outcomes                                                            *)

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable wrong : int;  (** operations whose output failed a check *)
}

let tally = { attempted = 0; failed = 0; wrong = 0 }

let failure ?(wrong = true) what =
  tally.failed <- tally.failed + 1;
  if wrong then tally.wrong <- tally.wrong + 1;
  Printf.eprintf "perfbench: FAILED %s\n%!" what

let checked what = function Ok () -> () | Error msg -> failure (what ^ ": " ^ msg)

(* A property of the whole run (not of one operation): a violation
   makes the run incorrect. *)
let property_failures = ref 0

let property what ok =
  if not ok then begin
    incr property_failures;
    Printf.eprintf "perfbench: PROPERTY VIOLATED %s\n%!" what
  end

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans (traced runs only)                        *)

let tracing = ref false
let spans : (string, float list) Hashtbl.t = Hashtbl.create 16

let record name dt =
  if !tracing then
    Hashtbl.replace spans name
      (dt :: Option.value ~default:[] (Hashtbl.find_opt spans name))

let span name f =
  let r, dt = timed f in
  record name dt;
  r

let samples name = Option.value ~default:[] (Hashtbl.find_opt spans name)

(* Program spans, from the in-process tracer or a daemon trace file. *)
type pspan = { p_name : string; p_tid : int; p_ts : float; p_dur_s : float; p_args : (string * float) list }

let in_process_spans () =
  List.map
    (fun (e : Trace.event) ->
      { p_name = e.name; p_tid = e.tid; p_ts = e.ts_us; p_dur_s = e.dur_us /. 1e6; p_args = e.args })
    (Trace.events ())

let span_total evs name =
  fsum (fun e -> if e.p_name = name then e.p_dur_s else 0.) evs

(* Mean coarsest-level size per multilevel hierarchy: the clusters of the
   last non-stagnated level span inside each ml.coarsen span. *)
let coarsest_vertices evs =
  let evs = List.sort (fun a b -> compare a.p_ts b.p_ts) evs in
  let current = Hashtbl.create 4 and finished = ref [] in
  let close tid =
    match Hashtbl.find_opt current tid with
    | Some v -> finished := v :: !finished
    | None -> ()
  in
  List.iter
    (fun e ->
      match e.p_name with
      | "ml.coarsen" ->
        close e.p_tid;
        Hashtbl.replace current e.p_tid
          (Option.value ~default:nan (List.assoc_opt "finest_vertices" e.p_args))
      | "ml.coarsen.level" when not (List.mem_assoc "stagnated" e.p_args) -> (
        match List.assoc_opt "clusters" e.p_args with
        | Some c -> Hashtbl.replace current e.p_tid c
        | None -> ())
      | _ -> ())
    evs;
  Hashtbl.iter (fun _ v -> finished := v :: !finished) current;
  match !finished with
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

(* FM and multilevel layer metrics, per round, from program spans and
   counters read through [counter] and [hist_sum]. *)
let engine_layers ~rounds ~counter ~hist_sum evs =
  let per x = x /. float_of_int rounds in
  let moves = counter "fm.moves" in
  [
    ("multilevel.coarsen_s", per (span_total evs "ml.coarsen"));
    ( "multilevel.levels",
      per (fsum (fun e -> if e.p_name = "ml.coarsen" then
                   Option.value ~default:0. (List.assoc_opt "levels" e.p_args) else 0.) evs));
    ("multilevel.initial_s", per (span_total evs "ml.initial"));
    ("multilevel.coarsest_vertices", coarsest_vertices evs);
    ("multilevel.refine_s", per (span_total evs "ml.refine"));
    ("fm.passes", per (counter "fm.passes"));
    ("fm.moves", per moves);
    ("fm.gain_repositions", per (counter "gain.repositions"));
    ( "fm.kept_move_ratio",
      (if moves > 0. then 1. -. (hist_sum "fm.rollback_depth" /. moves) else 0.));
  ]

(* ------------------------------------------------------------------ *)
(* Program entry points                                                *)

let mlclip () = Engine.find_exn "mlclip"
let eco_fm () = Engine.find_exn "eco_fm"

let partition h ~seed =
  let problem = Problem.make ~tolerance h in
  Engine.run (mlclip ()) (Rng.create seed) problem None

(* Warm-start one delta from [prior].  Traced runs time the patch, the
   boundary localization and the refinement apart. *)
let eco ~base ~base_fp ~seed ~prior delta =
  let patch = span "delta.patch" (fun () -> Patch.apply ~base ~base_fingerprint:base_fp delta) in
  if !tracing then
    span "delta.localize" (fun () ->
        let start = Eco.project patch ~prior in
        ignore (Eco.localize patch ~radius:Eco.default_config.Eco.radius ~assignment:start));
  let outcome =
    span "delta.refine" (fun () ->
        Eco.run ~engine:(eco_fm ()) ~scratch:(mlclip ()) ~seed ~prior patch)
  in
  if !tracing then begin
    record "delta.pins_touched" (float_of_int patch.Patch.stats.Patch.pins_touched);
    record "delta.fallback_runs" (if outcome.Eco.mode = Eco.Scratch then 1. else 0.);
    record "delta.free_fraction"
      (float_of_int outcome.Eco.free_vertices
      /. float_of_int (H.num_vertices patch.Patch.hypergraph))
  end;
  (patch, outcome)

let delta_layers ~rounds =
  let ms name = 1000. *. median (samples name) in
  [
    ("delta.patch_ms", ms "delta.patch");
    ("delta.localize_ms", ms "delta.localize");
    ("delta.refine_ms", ms "delta.refine");
    ("delta.pins_touched", median (samples "delta.pins_touched"));
    ("delta.fallback_runs", sum (samples "delta.fallback_runs") /. float_of_int rounds);
    ("delta.free_fraction", median (samples "delta.free_fraction"));
  ]

(* ------------------------------------------------------------------ *)
(* tables45-mlclip                                                    *)

type instance = {
  name : string;
  hgr : string;  (** the netlist, read by a partition op and by the checker *)
  fp : string;
  delta : Delta.t;
  delta_text : string;  (** the delta as .hgrd text, for the checker *)
}

(* Both workloads hold their work fixed: every start, delta and request
   seed derives from this seed, and the run seed only orders the
   instances.  One start's run time varies up to twofold with its
   seed (ibm18: 2.6-6.0 s) and one delta's refinement time by as much,
   so seed-drawn work would spread a round's time by ~40% over ten runs, and
   averaging that away needs ~15 starts per instance, which does not fit
   a run.  daemon-mixed still sends distinct requests in every round:
   round r's seeds derive from this seed and r. *)
let work_seed = 1

(* what one operation cost: wall-clock and CPU seconds *)
type cost = { wall : float; cpu : float }

type round = {
  cuts : int list;
  fresh : cost list;
  deltas : cost list;
}

let op f =
  tally.attempted <- tally.attempted + 1;
  let cpu0 = Sys.time () in
  match timed f with
  | r, wall -> Some (r, { wall; cpu = Sys.time () -. cpu0 })
  | exception e ->
    failure ~wrong:false (Printexc.to_string e);
    None

(* One round over [insts]: per instance a fresh partition, then a delta
   warm-started from it.  The checker reads its copy of an instance's net
   list only after the program's hypergraph is dropped, and drops it
   before the next instance, so the peak memory is the program's. *)
let offline_round insts =
  let cuts = ref [] and fresh = ref [] and deltas = ref [] in
  List.iter
    (fun i ->
      let answers =
        match
          op (fun () ->
              let h = span "hypergraph.parse" (fun () -> Io.read_hgr i.hgr) in
              (h, span ("engine.run_s." ^ i.name) (fun () -> partition h ~seed:work_seed)))
        with
        | None ->
          tally.attempted <- tally.attempted + 1;
          None
        | Some ((h, r), dt) ->
          fresh := dt :: !fresh;
          let cut = r.Engine.Result.cut and sides = Bip.assignment r.Engine.Result.solution in
          cuts := cut :: !cuts;
          let delta =
            match op (fun () -> eco ~base:h ~base_fp:i.fp ~seed:work_seed ~prior:sides i.delta) with
            | None -> None
            | Some ((_, outcome), dt) ->
              deltas := dt :: !deltas;
              let res = outcome.Eco.result in
              cuts := res.Engine.Result.cut :: !cuts;
              Some (res.Engine.Result.cut, Bip.assignment res.Engine.Result.solution)
          in
          Some (cut, sides, delta)
      in
      match answers with
      | None -> ()
      | Some (cut, sides, delta) ->
        let nl = Check.read_hgr i.hgr in
        checked (i.name ^ " partition") (Check.verify ~tolerance nl ~cut sides);
        Option.iter
          (fun (cut, sides) ->
            checked (i.name ^ " delta")
              (Check.verify ~tolerance (Check.apply_delta nl i.delta_text) ~cut sides))
          delta)
    insts;
  { cuts = List.rev !cuts; fresh = !fresh; deltas = !deltas }

let emit_hgr name path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> Suite.emit_instance name oc)

let prepare ~seed ~work names =
  List.mapi
    (fun k name ->
      let hgr = Filename.concat work (name ^ ".hgr") in
      let h = Io.read_hgr hgr in
      let fp = Fp.of_instance h in
      let delta =
        Delta_gen.perturb ~base_fingerprint:fp
          ~rng:(Rng.create (derive work_seed [ 5; k ]))
          ~fraction:delta_fraction h
      in
      { name; hgr; fp; delta; delta_text = Delta.to_string ~with_prior:false delta })
    names
  |> List.mapi (fun k i -> (derive seed [ 4; k ], i))
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* Whole rounds: the first, then another while it would end within
   [until] seconds of the start at the pace of the last one. *)
let rounds_for ~until insts =
  let start = now () in
  let rec go acc =
    let t0 = now () in
    let acc = offline_round insts :: acc in
    if now () -. start +. (now () -. t0) <= until then go acc else List.rev acc
  in
  go []

let cpu c = c.cpu
let wall c = c.wall
let round_cost f r = fsum f (r.fresh @ r.deltas)
let p50_ms f costs = median (List.map (fun c -> 1000. *. f c) costs)

(* The time metrics are CPU time: on a shared virtual machine the host
   takes a CPU from a run for up to half of tens of seconds at a time,
   which wall time counts (see README.md).  Wall time is reported with
   the per-layer metrics. *)
let offline_metrics ~setup_s rounds =
  let r0 = List.hd rounds in
  List.iter
    (fun r -> property "every round repeats round 0's cuts" (r.cuts = r0.cuts))
    rounds;
  let all f = List.concat_map f rounds in
  [
    ("setup_s", setup_s);
    ("round_cpu_s", median (List.map (round_cost cpu) rounds));
    ("cut_total", float_of_int (List.fold_left ( + ) 0 r0.cuts));
    ("peak_rss_mb", peak_rss_mb "self");
    ( "requests_per_cpu_s",
      float_of_int (List.length (all (fun r -> r.fresh @ r.deltas)))
      /. fsum (round_cost cpu) rounds );
    ("partition_cpu_p50_ms", p50_ms cpu (all (fun r -> r.fresh)));
    ("delta_cpu_p50_ms", p50_ms cpu (all (fun r -> r.deltas)));
  ]

let wall_layers ~round_walls ~fresh ~deltas =
  [
    ("wall.round_s", median round_walls);
    ("wall.partition_p50_ms", p50_ms wall fresh);
    ("wall.delta_p50_ms", p50_ms wall deltas);
  ]

let run_tables45 ~seed ~seconds ~work ~trace =
  let names = Suite.names_eval in
  let setup () =
    List.iter (fun name -> emit_hgr name (Filename.concat work (name ^ ".hgr"))) names
  in
  let setup_s = median (List.init setups (fun _ -> snd (timed setup))) in
  let insts = prepare ~seed ~work names in
  if not trace then (offline_metrics ~setup_s (rounds_for ~until:seconds insts), [])
  else begin
    let plain = rounds_for ~until:0. insts in
    Tel.reset ();
    Tel.enable ();
    tracing := true;
    let traced = rounds_for ~until:0. insts in
    Tel.disable ();
    let n = float_of_int (List.length traced) in
    let per name = sum (samples name) /. n in
    let counter name = float_of_int (Metrics.counter_value name) in
    let hist_sum name =
      match Metrics.histogram_stats name with Some s -> s.Metrics.sum | None -> 0.
    in
    let parse_s = per "hypergraph.parse" in
    let text_mb = fsum (fun i -> float_of_int (Unix.stat i.hgr).Unix.st_size /. 1048576.) insts in
    let wall_of rs = median (List.map (round_cost wall) rs) in
    ( offline_metrics ~setup_s (plain @ traced),
      [
        ("hypergraph.parse_s", parse_s);
        ("hypergraph.parse_mb_per_s", text_mb /. parse_s);
      ]
      @ engine_layers ~rounds:(List.length traced) ~counter ~hist_sum (in_process_spans ())
      @ List.map (fun i -> ("engine.run_s." ^ i.name, median (samples ("engine.run_s." ^ i.name)))) insts
      @ delta_layers ~rounds:(List.length traced)
      @ wall_layers
          ~round_walls:(List.map (round_cost wall) plain)
          ~fresh:(List.concat_map (fun r -> r.fresh) plain)
          ~deltas:(List.concat_map (fun r -> r.deltas) plain)
      @ [ ("trace.overhead_s", wall_of traced -. wall_of plain) ] )
  end

(* ------------------------------------------------------------------ *)
(* daemon-mixed                                                        *)

let daemon_names = Suite.names_small

type chain = {
  hgr_path : string;
  body : string;  (** the instance's .hgr text, sent on /partition *)
  fps : string array;  (** fps.(0): the instance; fps.(k): after step k *)
  deltas : string array;  (** deltas.(k-1): step k's .hgrd text, no prior *)
}

type cls = Fresh | Dup | Step

type obs = {
  cls : cls;
  round : int;
  inst : int;
  step : int;
  req_seed : int;
  cost : cost;  (** the client's wall time, the daemon's CPU time *)
  resp : (Client.response, string) result;
  ref_cut : string option;  (** a duplicate's original cut *)
  job_times : (float * float option) option;  (** /jobs queue and exec seconds *)
}

(* the daemon's own client, as [hypart submit] and Server.Fleet use it *)
let request ~port ~meth ~path ?body () =
  Client.http_request ~host:"127.0.0.1" ~port ~meth ~path ?body ()

let get ~port path = request ~port ~meth:"GET" ~path ()
let header (r : Client.response) name = Http.resp_header r name
let jnum k j = match J.member k j with Some (J.Num x) -> Some x | _ -> None

let get_json ~port path =
  match get ~port path with
  | Ok { Client.status = 200; resp_body; _ } -> J.parse resp_body
  | Ok { Client.status; _ } -> failwith (Printf.sprintf "GET %s: HTTP %d" path status)
  | Error m -> failwith (Printf.sprintf "GET %s: %s" path m)

let live_daemons = ref []

(* SIGTERM asks the daemon to drain and exit.  Its handler runs only once
   a domain leaves a blocking call, and the signal can land on a worker
   waiting for a job while the accept loop sits in select, so the daemon
   may not see it until a connection arrives (see FOUND in CHANGES.md).
   A connection opened and closed at once is that wake-up; SIGKILL is the
   last resort. *)
let stop_daemon ~port pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let wake () =
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    (try Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port)) with Unix.Unix_error _ -> ());
    Unix.close fd
  in
  let rec wait tries =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when tries > 0 ->
      Unix.sleepf 0.05;
      if tries mod 20 = 0 then wake ();
      wait (tries - 1)
    | 0, _ ->
      prerr_endline "perfbench: the daemon did not stop on SIGTERM; killing it";
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid)
    | _ -> ()
  in
  wait 200;
  live_daemons := List.filter (( <> ) pid) !live_daemons

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live_daemons)

(* Start [hypart serve] on an ephemeral port; returns (pid, port) once
   /healthz answers. *)
let start_daemon ~workers ~trace_file =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let args =
    [ hypart_exe; "serve"; "--host"; "127.0.0.1"; "--port"; "0"; "--workers"; string_of_int workers ]
    @ match trace_file with Some f -> [ "--trace"; f ] | None -> []
  in
  let pid = Unix.create_process hypart_exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  live_daemons := pid :: !live_daemons;
  (* the daemon prints one line, "hypart daemon listening on HOST:PORT" *)
  let ic = Unix.in_channel_of_descr rd in
  let line = input_line ic in
  close_in ic;
  let colon = String.rindex line ':' in
  let port = int_of_string (String.sub line (colon + 1) (String.length line - colon - 1)) in
  let rec ready tries =
    match get ~port "/healthz" with
    | Ok { Client.status = 200; _ } -> ()
    | _ ->
      if tries = 0 then failwith "the daemon never became healthy";
      Unix.sleepf 0.01;
      ready (tries - 1)
  in
  ready 500;
  (pid, port)

let job_times ~port rs =
  match header rs "x-hypart-job" with
  | None -> None
  | Some id -> (
    match get_json ~port ("/jobs/" ^ id) with
    | j -> Option.map (fun q -> (q, jnum "exec_seconds" j)) (jnum "queue_seconds" j)
    | exception Failure _ -> None)

(* Two jobs sent at once to a fresh two-worker daemon, before any other
   traffic.  Each worker forces a lazily computed provenance stamp when it
   records its first job, and two workers forcing it at once fail a
   request (see FOUND in CHANGES.md).  Returns how many of the two were
   not answered: a witness of that fault, not an operation of the
   workload. *)
let first_jobs ~port =
  let job seed () =
    match
      request ~port ~meth:"POST"
        ~path:(Printf.sprintf "/partition?engine=mlclip&seed=%d&out=plain" seed)
        ~body:"2 4\n1 2\n3 4\n" ()
    with
    | Ok { Client.status = 200; _ } -> 0
    | Ok { Client.status; _ } ->
      Printf.eprintf "perfbench: concurrent first job: HTTP %d\n%!" status;
      1
    | Error m ->
      Printf.eprintf "perfbench: concurrent first job: %s\n%!" m;
      1
  in
  let other = Domain.spawn (job 2) in
  let here = job 1 () in
  here + Domain.join other

(* Two ibm01 partitions sent at once to a two-worker daemon, after its
   first jobs: the engine CPU seconds they report (X-Hypart-Seconds) over
   their /jobs exec seconds.  With one worker the fault this witnesses
   cannot show, so it is measured here and not on the serving daemon. *)
let cpu_over_exec ~port body =
  let job seed () =
    match
      request ~port ~meth:"POST"
        ~path:(Printf.sprintf "/partition?engine=mlclip&seed=%d&out=plain" seed)
        ~body ()
    with
    | Ok ({ Client.status = 200; _ } as rs) -> (
      match (Option.bind (header rs "x-hypart-seconds") float_of_string_opt, job_times ~port rs) with
      | Some cpu, Some (_, Some exec) -> (cpu, exec)
      | _ -> (0., 0.))
    | _ -> (0., 0.)
  in
  let other = Domain.spawn (job (derive work_seed [ 7; 2 ])) in
  let c1, e1 = job (derive work_seed [ 7; 1 ]) () in
  let c2, e2 = Domain.join other in
  if e1 +. e2 > 0. then (c1 +. c2) /. (e1 +. e2) else 0.

let variant_of round = round mod chain_variants

(* The request bodies: each instance's .hgr and its chains of seeded
   deltas, step k generated against the instance patched by steps
   1..k-1. *)
let build_chains ~work =
  Array.of_list
    (List.mapi
       (fun i name ->
         let h0 = Suite.instance name in
         let hgr_path = Filename.concat work (name ^ ".hgr") in
         Io.write_hgr hgr_path h0;
         let body = Check.read_file hgr_path in
         let fp0 = Fp.of_instance h0 in
         Array.init chain_variants (fun v ->
             let fps = Array.make (chain_length + 1) fp0 in
             let deltas = Array.make chain_length "" in
             let h = ref h0 in
             for k = 1 to chain_length do
               let d =
                 Delta_gen.perturb ~base_fingerprint:fps.(k - 1)
                   ~rng:(Rng.create (derive work_seed [ 6; i; v; k ]))
                   ~fraction:delta_fraction !h
               in
               let p = Patch.apply ~base:!h ~base_fingerprint:fps.(k - 1) d in
               deltas.(k - 1) <- Delta.to_string ~with_prior:false d;
               fps.(k) <- p.Patch.fingerprint;
               h := p.Patch.hypergraph
             done;
             { hgr_path; body; fps; deltas }))
       daemon_names)

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(* The closed loop, one connection: rounds [first_round] to
   [last_round - 1], none started after [deadline].  A round visits the three instances in a seeded
   order: a fresh partition, a chain of deltas stacked on its answer, then
   byte-identical duplicates of the fresh request.  Returns the
   observations and each round's cost. *)
let phase ~seed ~port ~pid ~chains ~deadline ~first_round ~last_round ~ask_jobs =
  let obs = ref [] and rounds = ref [] and round = ref first_round in
  let send cls ~inst ~step ~req_seed ?ref_cut ~path body =
    let cpu0 = cpu_of pid in
    let resp, wall = timed (fun () -> request ~port ~meth:"POST" ~path ~body ()) in
    let cost = { wall; cpu = cpu_of pid -. cpu0 } in
    let job_times = match resp with Ok rs when ask_jobs -> job_times ~port rs | _ -> None in
    obs :=
      { cls; round = !round; inst; step; req_seed; cost; resp; ref_cut; job_times } :: !obs;
    match resp with Ok ({ Client.status = 200; _ } as rs) -> Some rs | _ -> None
  in
  while !round < last_round && now () < deadline do
    let t0 = now () and cpu0 = cpu_of pid in
    let rng = Random.State.make [| derive seed [ 3; !round ] |] in
    let order =
      List.map snd (List.sort compare (List.map (fun i -> (Random.State.bits rng, i)) [ 0; 1; 2 ]))
    in
    List.iter
      (fun i ->
        let c = chains.(i).(variant_of !round) in
        let fseed = derive work_seed [ 1; !round; i ] in
        let path = Printf.sprintf "/partition?engine=mlclip&seed=%d&out=plain" fseed in
        let fresh = send Fresh ~inst:i ~step:0 ~req_seed:fseed ~path c.body in
        let ref_cut = Option.bind fresh (fun rs -> header rs "x-hypart-cut") in
        let prior = ref (Option.map (fun rs -> rs.Client.resp_body) fresh) in
        for k = 1 to chain_length do
          let dseed = derive work_seed [ 2; !round; i; k ] in
          let body =
            match !prior with
            | Some sides -> c.deltas.(k - 1) ^ Printf.sprintf "prior %d\n" (count_lines sides) ^ sides
            | None -> c.deltas.(k - 1) (* no prior: the daemon must refuse it *)
          in
          let path = Printf.sprintf "/delta?engine=eco_fm&seed=%d&out=plain" dseed in
          prior :=
            Option.map
              (fun rs -> rs.Client.resp_body)
              (send Step ~inst:i ~step:k ~req_seed:dseed ~path body)
        done;
        for _ = 1 to duplicates do
          ignore (send Dup ~inst:i ~step:0 ~req_seed:fseed ?ref_cut ~path c.body)
        done)
      order;
    rounds := { wall = now () -. t0; cpu = cpu_of pid -. cpu0 } :: !rounds;
    incr round
  done;
  (List.rev !obs, List.rev !rounds)

let ok o = match o.resp with Ok { Client.status = 200; _ } -> true | _ -> false

let check_obs c nls o =
  tally.attempted <- tally.attempted + 1;
  let what =
    Printf.sprintf "%s %s%s"
      (match o.cls with Fresh -> "partition" | Dup -> "duplicate" | Step -> "delta")
      (List.nth daemon_names o.inst)
      (if o.cls = Step then Printf.sprintf " step %d" o.step else "")
  in
  match o.resp with
  | Error m -> failure ~wrong:false (what ^ ": " ^ m)
  | Ok { Client.status; _ } when status <> 200 ->
    failure ~wrong:false (Printf.sprintf "%s: HTTP %d" what status)
  | Ok rs -> (
    let h name = Option.value ~default:"" (header rs name) in
    let verify nl cut =
      checked what (Check.verify ~tolerance nl ~cut (Check.sides_of_string rs.Client.resp_body))
    in
    match (o.cls, int_of_string_opt (h "x-hypart-cut")) with
    | _, None -> failure (what ^ ": no cut header")
    | Dup, Some _ ->
      if h "x-hypart-cached" <> "true" then failure (what ^ ": not answered from the cache")
      else if Some (h "x-hypart-cut") <> o.ref_cut then
        failure (what ^ ": the cached cut differs from the original")
    | Fresh, Some cut ->
      if h "x-hypart-cached" <> "false" then failure (what ^ ": answered from the cache")
      else if h "x-hypart-instance" <> c.fps.(0) then failure (what ^ ": wrong instance fingerprint")
      else verify nls.(0) cut
    | Step, Some cut ->
      if h "x-hypart-cached" <> "false" then failure (what ^ ": answered from the cache")
      else if h "x-hypart-delta-fingerprint" <> c.fps.(o.step) then
        failure (what ^ ": wrong patched-instance fingerprint")
      else verify nls.(o.step) cut)

(* Check every answer, one chain at a time: the checker applies the
   chain's deltas to its own copy of the instance's net list. *)
let check_all chains obs =
  Array.iteri
    (fun i variants ->
      let base = Check.of_hgr_string variants.(0).body in
      Array.iteri
        (fun v c ->
          match
            List.filter (fun o -> o.inst = i && variant_of o.round = v) obs
          with
          | [] -> ()
          | mine ->
            let nls = Array.make (chain_length + 1) base in
            for k = 1 to chain_length do
              nls.(k) <- Check.apply_delta nls.(k - 1) c.deltas.(k - 1)
            done;
            List.iter (check_obs c nls) mine)
        variants)
    chains

let cut_of o =
  match o.resp with
  | Ok rs -> Option.bind (header rs "x-hypart-cut") int_of_string_opt
  | Error _ -> None

let sides_of o =
  match o.resp with Ok rs -> Check.sides_of_string rs.Client.resp_body | Error _ -> [||]

(* Replay each instance's chain in-process from a served fresh answer,
   with the served seeds: the answers must match the daemon's (served =
   offline for deltas), and traced runs time the delta layers here. *)
let replay_chains chains obs =
  List.iteri
    (fun i _ ->
      match List.find_opt (fun o -> o.cls = Fresh && o.inst = i && ok o) obs with
      | None -> ()
      | Some f ->
        let c = chains.(i).(variant_of f.round) in
        let h = ref (Io.read_hgr c.hgr_path) and prior = ref (sides_of f) in
        for k = 1 to chain_length do
          let dseed = derive work_seed [ 2; f.round; i; k ] in
          let patch, outcome =
            eco ~base:!h ~base_fp:c.fps.(k - 1) ~seed:dseed ~prior:!prior
              (Delta.of_string c.deltas.(k - 1))
          in
          let res = outcome.Eco.result in
          (match
             List.find_opt
               (fun o -> o.cls = Step && o.round = f.round && o.inst = i && o.step = k)
               obs
           with
          | Some o when ok o ->
            property
              (Printf.sprintf "served = offline for %s delta step %d" (List.nth daemon_names i) k)
              (cut_of o = Some res.Engine.Result.cut)
          | _ -> ());
          h := patch.Patch.hypergraph;
          prior := Bip.assignment res.Engine.Result.solution
        done)
    daemon_names

(* the daemon's /healthz dedup-cache size and /metrics counters *)
let daemon_state ~port =
  let m = get_json ~port "/metrics" in
  let counters = Option.value ~default:(J.Obj []) (J.member "counters" m) in
  ( Option.value ~default:nan (jnum "cache_size" (get_json ~port "/healthz")),
    (fun n -> Option.value ~default:0. (jnum n counters)),
    m )

let run_daemon ~seed ~seconds ~work ~trace =
  let trace_file = if trace then Some (Filename.concat work "daemon.trace.json") else None in
  (* every set-up starts the serving daemon, with one worker for the one
     connection; the last one serves the run *)
  let setups_done =
    List.init setups (fun k ->
        let (chains, (pid, port)), dt =
          timed (fun () ->
              let chains = build_chains ~work in
              (chains, start_daemon ~workers:1 ~trace_file))
        in
        if k < setups - 1 then stop_daemon ~port pid;
        (chains, pid, port, dt))
  in
  let setup_s = median (List.map (fun (_, _, _, dt) -> dt) setups_done) in
  let chains, pid, port, _ = List.nth setups_done (setups - 1) in
  (* The witnesses, on fresh two-worker daemons, each sent two jobs at
     once and then stopped; traced runs also time two concurrent ibm01
     partitions on the last. *)
  let witnesses =
    List.init setups (fun k ->
        let pid, port = start_daemon ~workers:2 ~trace_file:None in
        let failed = first_jobs ~port in
        let ratio = if trace && k = setups - 1 then cpu_over_exec ~port chains.(0).(0).body else 0. in
        stop_daemon ~port pid;
        (failed, ratio))
  in
  let first_job_failures = List.fold_left (fun n (f, _) -> n + f) 0 witnesses in
  let engine_cpu_over_exec = List.fold_left (fun r (_, x) -> Float.max r x) 0. witnesses in
  let size0, counter0, _ = daemon_state ~port in
  let run = phase ~seed ~port ~pid ~chains ~deadline:(now () +. (daemon_wall_cap *. seconds)) in
  let rounds = max 2 (int_of_float (seconds /. daemon_round_s)) in
  let phases =
    if trace then
      let half = rounds / 2 in
      [
        run ~first_round:0 ~last_round:half ~ask_jobs:false;
        run ~first_round:half ~last_round:rounds ~ask_jobs:true;
      ]
    else [ run ~first_round:0 ~last_round:rounds ~ask_jobs:false ]
  in
  let obs = List.concat_map fst phases in
  let round_costs = List.concat_map snd phases in
  let size1, counter1, metrics = daemon_state ~port in
  let rss = peak_rss_mb (string_of_int pid) in
  stop_daemon ~port pid;
  check_all chains obs;
  let answered cls = List.filter (fun o -> o.cls = cls && ok o) obs in
  let fresh = answered Fresh and steps = answered Step in
  let engine_runs = float_of_int (List.length fresh + List.length steps) in
  let counter n = counter1 n -. counter0 n in
  let lab_runs = counter "server.jobs_executed" +. counter "delta.executed" in
  property "dedup cache records added = fresh + delta answers" (size1 -. size0 = engine_runs);
  property "engine runs (jobs executed + deltas executed) = fresh + delta answers"
    (lab_runs = engine_runs);
  (* served = offline: the first fresh answer against an in-process run *)
  (match fresh with
  | o :: _ ->
    let r = partition (Io.read_hgr chains.(o.inst).(0).hgr_path) ~seed:o.req_seed in
    property "served = offline (cut and assignment of a fresh partition)"
      (cut_of o = Some r.Engine.Result.cut
      && sides_of o = Bip.assignment r.Engine.Result.solution)
  | [] -> ());
  tracing := trace;
  replay_chains chains obs;
  let cut_total =
    List.fold_left
      (fun acc o ->
        if o.round = 0 && o.cls <> Dup then acc + Option.value ~default:0 (cut_of o) else acc)
      0 obs
  in
  let costs = List.map (fun o -> o.cost) in
  let e2e =
    [
      ("setup_s", setup_s);
      ("round_cpu_s", median (List.map cpu round_costs));
      ("cut_total", float_of_int cut_total);
      ("peak_rss_mb", rss);
      ("requests_per_cpu_s", float_of_int (List.length obs) /. fsum cpu round_costs);
      ("partition_cpu_p50_ms", p50_ms cpu (costs fresh));
      ("delta_cpu_p50_ms", p50_ms cpu (costs steps));
    ]
  in
  match phases with
  | [ (plain, plain_rounds); (traced, traced_rounds) ] ->
    let sect s = Option.value ~default:(J.Obj []) (J.member s metrics) in
    let hist_sum n =
      match J.member n (sect "histograms") with Some h -> Option.value ~default:0. (jnum "sum" h) | None -> 0.
    in
    let evs =
      match trace_file with
      | Some f when Sys.file_exists f -> (
        match J.member "traceEvents" (J.parse (Check.read_file f)) with
        | Some (J.Arr evs) ->
          List.filter_map
            (fun e ->
              match (J.member "name" e, J.member "ph" e) with
              | Some (J.Str name), Some (J.Str "X") ->
                let num k = Option.value ~default:0. (jnum k e) in
                let args =
                  match J.member "args" e with
                  | Some (J.Obj kv) ->
                    List.filter_map (fun (k, v) -> match v with J.Num x -> Some (k, x) | _ -> None) kv
                  | _ -> []
                in
                Some
                  { p_name = name; p_tid = int_of_float (num "tid"); p_ts = num "ts"; p_dur_s = num "dur" /. 1e6; p_args = args }
              | _ -> None)
            evs
        | _ -> [])
      | _ -> []
    in
    (* /jobs was read for every answer of the traced phase *)
    let timed_obs cls = List.filter (fun o -> o.cls = cls && ok o && o.job_times <> None) traced in
    let queue o = match o.job_times with Some (q, _) -> q | None -> 0. in
    let exec o = match o.job_times with Some (_, Some e) -> e | _ -> 0. in
    let ms_of f os = median (List.map (fun o -> 1000. *. f o) os) in
    let overhead cls = ms_of (fun o -> o.cost.wall -. queue o -. exec o) (timed_obs cls) in
    let ratio hits misses = let h = counter hits and m = counter misses in h /. (h +. m) in
    let n_rounds = List.length round_costs in
    let plain_ok cls = costs (List.filter (fun o -> o.cls = cls && ok o) plain) in
    ( e2e,
      engine_layers ~rounds:n_rounds ~counter ~hist_sum evs
      @ List.mapi
          (fun i name ->
            ( "engine.run_s." ^ name,
              median (List.map exec (List.filter (fun o -> o.inst = i) (timed_obs Fresh)))))
          daemon_names
      @ delta_layers ~rounds:1
      @ [
          ("server.queue_ms", ms_of queue (timed_obs Fresh));
          ("server.exec_ms", ms_of exec (timed_obs Fresh));
          ("server.instance_cache_hit_ratio", ratio "server.instance_cache_hits" "server.instance_cache_misses");
          ( "server.response_kb",
            median
              (List.map
                 (fun o -> match o.resp with Ok rs -> float_of_int (String.length rs.Client.resp_body) /. 1024. | Error _ -> 0.)
                 (timed_obs Fresh)));
          ("server.overhead_ms.partition", overhead Fresh);
          ("server.overhead_ms.dedup", overhead Dup);
          ("server.overhead_ms.delta", overhead Step);
          ("server.engine_cpu_over_exec", engine_cpu_over_exec);
          ("server.first_job_failures", float_of_int first_job_failures);
          ("lab.dedup_hit_ratio", ratio "lab.cache_hits" "lab.cache_misses");
          ("lab.engine_runs", lab_runs /. float_of_int n_rounds);
        ]
      @ wall_layers ~round_walls:(List.map wall plain_rounds) ~fresh:(plain_ok Fresh)
          ~deltas:(plain_ok Step)
      @ [
          ( "trace.overhead_s",
            median (List.map wall traced_rounds) -. median (List.map wall plain_rounds) );
        ] )
  | _ -> (e2e, [])

(* ------------------------------------------------------------------ *)
(* Main                                                                *)

(* Every metric, with its unit, in the order BENCHMARK.json lists them. *)
let end_to_end =
  [
    ("setup_s", "s"); ("round_cpu_s", "s"); ("cut_total", "nets"); ("peak_rss_mb", "MiB");
    ("requests_per_cpu_s", "req/cpu-s"); ("partition_cpu_p50_ms", "ms");
    ("delta_cpu_p50_ms", "ms");
  ]

let per_layer =
  [
    ("hypergraph.parse_s", "s"); ("hypergraph.parse_mb_per_s", "MB/s");
    ("multilevel.coarsen_s", "s"); ("multilevel.levels", "count"); ("multilevel.initial_s", "s");
    ("multilevel.coarsest_vertices", "count"); ("multilevel.refine_s", "s");
    ("fm.passes", "count"); ("fm.moves", "count"); ("fm.gain_repositions", "count");
    ("fm.kept_move_ratio", "ratio");
  ]
  @ List.map (fun n -> ("engine.run_s." ^ n, "s")) Suite.names_eval
  @ [
      ("server.queue_ms", "ms"); ("server.exec_ms", "ms");
      ("server.instance_cache_hit_ratio", "ratio"); ("server.response_kb", "KiB");
      ("server.overhead_ms.partition", "ms"); ("server.overhead_ms.dedup", "ms");
      ("server.overhead_ms.delta", "ms"); ("server.engine_cpu_over_exec", "ratio");
      ("server.first_job_failures", "count");
      ("lab.dedup_hit_ratio", "ratio"); ("lab.engine_runs", "count");
      ("delta.patch_ms", "ms"); ("delta.localize_ms", "ms"); ("delta.refine_ms", "ms");
      ("delta.pins_touched", "count"); ("delta.fallback_runs", "count");
      ("delta.free_fraction", "ratio");
      ("wall.round_s", "s"); ("wall.partition_p50_ms", "ms"); ("wall.delta_p50_ms", "ms");
      ("trace.overhead_s", "s");
    ]

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let usage () =
  prerr_endline
    "usage: bench.exe --workload tables45-mlclip|daemon-mixed --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let workload = get "--workload" and seed = int "--seed" and seconds = float_of_int (int "--seconds") in
  let trace = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds <= 0. then usage ();
  if not (Sys.file_exists hypart_exe) then begin
    prerr_endline ("perfbench: " ^ hypart_exe ^ " is missing; run perfbench/run.sh");
    exit 2
  end;
  Hypart_engines.init ();
  let work = Filename.concat "perfbench" (Printf.sprintf "_work.%d" (Unix.getpid ())) in
  Sys.mkdir work 0o755;
  at_exit (fun () -> try remove_tree work with Sys_error _ -> ());
  (* a stopped run still stops its daemon and removes its files *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 1))) [ Sys.sigterm; Sys.sigint ];
  let e2e, layers =
    match workload with
    | "tables45-mlclip" -> run_tables45 ~seed ~seconds ~work ~trace
    | "daemon-mixed" -> run_daemon ~seed ~seconds ~work ~trace
    | _ -> usage ()
  in
  let names, produced = if trace then (per_layer, layers) else (end_to_end, e2e) in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name produced with
        | Some v -> (name, v, unit)
        | None -> (name, 0., unit) (* a layer this workload does not run *))
      names
  in
  List.iter
    (fun (n, v, _) -> property (n ^ " is a finite number") (Float.is_finite v))
    metrics;
  let correct = tally.wrong = 0 && !property_failures = 0 in
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    tally.attempted tally.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n (value v) u)
          metrics));
  exit (if correct && tally.failed = 0 then 0 else 1)
