(* serve-mixed: embed -> store -> serve -> recognize, the way a user
   drives the service.  A Service.Server runs in this process with a
   1-domain pool and 2 connection workers over a fresh fsync'd
   Store.Registry; two client connections run closed loops.

   Request mix: 20% Embed (jwm, a quarter gwm), 60% Recognize of a digest
   the connection stored, 20% Get_artifact/Stats.  Hosts and widths are
   drawn as in recognize-scan.  Each connection draws from its own seeded
   stream and recognizes only its own marks, so its requests depend on the
   seed alone. *)

open Common

let setup_reps = 3

let connections = 2

let checked = ratio_pairs

type mark = { digest : string; scheme : string; width : int; fp : Bignum.t; host : host }

(* One connection's seeded streams (see [cycler]): ops in passes of ten
   (2 embeds, 6 recognitions, a get and a stats), and balanced embed
   hosts, widths and schemes.  Recognition costs differ tenfold between
   hosts, so free draws would move latency with the seed. *)
type draws = {
  rng : Util.Prng.t;
  next_op : unit -> [ `Embed | `Recognize | `Get | `Stats ];
  next_host : unit -> host * string;
  next_width : unit -> int;
  next_scheme : unit -> string;
}

let draws hosts seed =
  let rng = Util.Prng.create (Int64.of_int seed) in
  {
    rng;
    next_op = cycler rng ([ `Embed; `Embed; `Get; `Stats ] @ List.init 6 (fun _ -> `Recognize));
    next_host = cycler rng (Array.to_list hosts);
    next_width = cycler rng widths;
    next_scheme = cycler rng [ "gwm"; "jwm"; "jwm"; "jwm" ];
  }

type served = {
  dir : string;
  store : Store.Registry.t;
  server : Thread.t;
  clients : Service.Client.t array;
  draws : draws array;  (** per connection *)
  marks : mark list array;  (** per connection, newest first *)
}

type phase = {
  lock : Mutex.t;
  lat : (string, float list) Hashtbl.t;  (** op -> client latencies (ms) *)
  mutable attempted : int;
  throughput : rate;
  mutable embedded : (mark * int * int) list;  (** mark, bytes before, after *)
  verdicts : tally;
  errors : tally;  (** requests that did not complete, or a bad payload *)
  by_host : strata;  (** "op host" -> client latencies (ms) *)
  mutable bad_payloads : int;
}

let new_phase () =
  { lock = Mutex.create (); lat = Hashtbl.create 8; attempted = 0; throughput = rate (); embedded = []; verdicts = tally ();
    errors = tally (); by_host = strata (); bad_payloads = 0 }

let samples p op = Option.value ~default:[] (Hashtbl.find_opt p.lat op)

let embed_request ~key d =
  let h, bytes = d.next_host () in
  let width = d.next_width () and scheme = d.next_scheme () in
  let fp = fingerprint d.rng width in
  ( Service.Proto.Embed
      {
        scheme;
        program = bytes;
        key;
        bits = width;
        pieces = Scheme.Watermarker.default_redundancy;
        fingerprint = fp;
        input = h.w.input;
        seed = Util.Prng.next_int64 d.rng;
      },
    (fun digest -> { digest; scheme; width; fp; host = h }),
    h.w.Workloads.Workload.name )

let rpc client req =
  match Service.Client.call ~deadline:60.0 client req with
  | r -> r
  | exception e -> Service.Proto.Error { code = "client"; message = Printexc.to_string e }

let failure_of = function
  | Service.Proto.Error { code; message } -> Printf.sprintf "error %s: %s" code message
  | Service.Proto.Overloaded _ -> "shed (overloaded)"
  | _ -> "unexpected response"

(* Marks each connection stores during set-up, so that its first
   recognitions already spread over several hosts. *)
let seed_marks = 7

let setup ?events args ~key ~seed () =
  let dir = scratch_dir args "serve" in
  let hosts =
    Array.of_list (List.map (fun w -> let h = prepare_host w in (h, Stackvm.Serialize.encode h.prog)) vm_hosts)
  in
  let store = Store.Registry.open_store ~root:(Filename.concat dir "registry") () in
  let socket = Filename.concat dir "pm.sock" in
  let server =
    Thread.create
      (fun () -> ignore (Service.Server.serve ?events ~domains:1 ~conn_workers:2 ~store ~socket_path:socket ()))
      ()
  in
  let clients = Array.init connections (fun _ -> Service.Client.connect socket) in
  let draws = Array.init connections (fun i -> draws hosts ((seed * 104729) + i)) in
  let marks =
    Array.mapi
      (fun i client ->
        List.init seed_marks (fun _ ->
            let req, mk, _ = embed_request ~key draws.(i) in
            match rpc client req with
            | Service.Proto.Embedded { digest; _ } -> mk digest
            | r -> failwith ("set-up embed failed: " ^ failure_of r))
        |> List.rev)
      clients
  in
  { dir; store; server; clients; draws; marks }

let teardown s =
  ignore (rpc s.clients.(0) Service.Proto.Shutdown);
  Array.iter Service.Client.close s.clients;
  Thread.join s.server;
  Store.Registry.close s.store;
  remove_tree s.dir

(* What a reply says about its request: [Verdict_failure] is a completed
   recognition that failed (counted in failed_share), [Op_error] a
   request that did not complete (counted in [failed]). *)
type outcome = Fine | Verdict_failure of string | Op_error of string

(* One connection's closed loop until [stop ()]. *)
let client_loop s p ~spans ~key ~stop i =
  let d = s.draws.(i) in
  let client = s.clients.(i) in
  let marks = ref s.marks.(i) and recognitions = ref 0 in
  let req_id = ref 0 in
  while not (stop ()) do
    let op, stratum, req, on_reply =
      match d.next_op () with
      | `Embed ->
          let req, mk, host = embed_request ~key d in
          ( "embed",
            "embed " ^ host,
            req,
            function
            | Service.Proto.Embedded { digest; bytes_before; bytes_after; _ } ->
                let m = mk digest in
                marks := m :: !marks;
                with_lock p.lock (fun () -> p.embedded <- (m, bytes_before, bytes_after) :: p.embedded);
                Fine
            | r -> Op_error (failure_of r) )
      | `Recognize ->
          (* round robin over this connection's marks, oldest first *)
          let m = List.nth (List.rev !marks) (!recognitions mod List.length !marks) in
          incr recognitions;
          ( "recognize",
            "recognize " ^ m.host.w.Workloads.Workload.name,
            Service.Proto.Recognize
              { scheme = m.scheme; source = `Stored m.digest; key; bits = m.width; input = m.host.w.input },
            function
            | Service.Proto.Recognized { value; _ } ->
                let v = classify ~attacked:false ~expected:(Some m.fp) value in
                note_verdict p.verdicts ~group:(Printf.sprintf "%s width %2d" m.scheme m.width) v;
                if is_failure v then
                  Verdict_failure
                    (Printf.sprintf "%s/%d-bit/%s: %s" m.host.w.Workloads.Workload.name m.width m.scheme
                       (verdict_name v))
                else Fine
            | r -> Op_error (failure_of r) )
      | `Get ->
          let m = Util.Prng.pick_list d.rng !marks in
          ( "get",
            "get",
            Service.Proto.Get_artifact { kind = Store.Artifact.Vm_program; key = m.digest },
            function
            | Service.Proto.Artifact { payload; _ } ->
                if Digest.to_hex (Digest.string payload) = m.digest then Fine
                else begin
                  with_lock p.lock (fun () -> p.bad_payloads <- p.bad_payloads + 1);
                  Op_error "get: payload does not match its digest"
                end
            | r -> Op_error (failure_of r) )
      | `Stats ->
          ("stats", "stats", Service.Proto.Stats, function Service.Proto.Stats_reply _ -> Fine | r -> Op_error (failure_of r))
    in
    let reply, ms =
      timed (fun () ->
          match spans with
          | Some sp -> Spans.span sp ~req:((i * 1_000_000) + !req_id) ("service." ^ op) (fun _ -> rpc client req)
          | None -> rpc client req)
    in
    incr req_id;
    let outcome = on_reply reply in
    with_lock p.lock (fun () ->
        p.attempted <- p.attempted + 1;
        finished p.throughput;
        Hashtbl.replace p.lat op (ms :: samples p op));
    match outcome with
    | Fine -> add_sample p.by_host stratum ms
    | Verdict_failure r ->
        add_sample p.by_host stratum ms;
        note_failure p.verdicts r
    | Op_error r -> note_failure p.errors r
  done

let run_phase s ~spans ~key ~seconds ~sample_floor =
  let p = new_phase () in
  let t_start = now () in
  let stop () =
    let t = now () in
    t >= t_start +. max_phase
    || t >= t_start +. seconds
       && ((not sample_floor)
          || with_lock p.lock (fun () ->
                 List.length (samples p "embed") >= min_samples
                 && List.length (samples p "recognize") >= min_samples))
  in
  let threads =
    List.init connections (fun i -> Thread.create (fun () -> client_loop s p ~spans ~key ~stop i) ())
  in
  List.iter Thread.join threads;
  (p, now () -. t_start)

let count t = List.fold_left (fun acc (_, n) -> acc + n) 0 t.reasons

let failed_ops p = count p.errors

let starts_with prefix k = String.length k >= String.length prefix && String.sub k 0 (String.length prefix) = prefix

(* Requests per second by Little's law: the connections over the mean
   response time of a pass of ten requests, each request costing the
   median of its op on its host (stratified, see Common). *)
let stratified_rate p =
  let op name = mean_of_medians ~only:(starts_with (name ^ " ")) p.by_host in
  let single name = mean_of_medians ~only:(( = ) name) p.by_host in
  let pass_ms = (2.0 *. op "embed") +. (6.0 *. op "recognize") +. single "get" +. single "stats" in
  metric "median_ops_per_s" "1/s" (1000.0 *. 10.0 *. float_of_int connections /. pass_ms)
    ~samples:(List.length (medians p.by_host))

(* Post-phase checks on the first [checked] marks: outputs against the
   host's reference, and the marked-over-clean run ratio. *)
let check_marks s p =
  let marks = List.filteri (fun i _ -> i < checked) (List.rev p.embedded) in
  let progs =
    List.filter_map
      (fun (m, _, _) ->
        match Store.Registry.get s.store ~kind:Store.Artifact.Vm_program ~key:m.digest with
        | Ok (payload, _) -> Some (m.host, Stackvm.Serialize.decode payload)
        | Error _ -> None)
      marks
  in
  let bad = List.filter (fun (h, prog) -> not (vm_outputs_ok h prog)) progs in
  (List.length progs = List.length marks && bad = [], marked_run_ratio progs)

(* Replay the traced phase's payloads against a scratch registry opened
   like the server's, and its embeds' snapshot captures. *)
let replay_layers args s p spans =
  let dir = scratch_dir args "replay" in
  let scratch = Store.Registry.open_store ~root:dir () in
  let payloads =
    List.concat_map
      (fun (m, _, _) ->
        List.filter_map
          (fun kind ->
            match Store.Registry.get s.store ~kind ~key:m.digest with
            | Ok (payload, _) -> Some (kind, m.digest, payload)
            | Error _ -> None)
          [ Store.Artifact.Vm_program; Store.Artifact.Report ])
      p.embedded
  in
  List.iteri
    (fun i (kind, key, payload) ->
      Spans.span spans ~req:i "store.put" (fun _ -> ignore (Store.Registry.put scratch ~kind ~key payload)))
    payloads;
  List.iteri
    (fun i (kind, key, _) -> Spans.span spans ~req:i "store.get" (fun _ -> ignore (Store.Registry.get scratch ~kind ~key)))
    payloads;
  List.iteri
    (fun i (m, _, _) ->
      Spans.span spans ~req:i "stackvm.capture" (fun _ ->
          ignore (Stackvm.Trace.capture ~want_snapshots:true m.host.prog ~input:m.host.w.input)))
    p.embedded;
  let st = Store.Registry.stats scratch in
  Store.Registry.close scratch;
  remove_tree dir;
  if st.Store.Registry.puts = 0 then 0.0
  else float_of_int st.Store.Registry.journal_bytes /. float_of_int st.Store.Registry.puts

let size_overhead p =
  let b, a = List.fold_left (fun (b, a) (_, before, after) -> (b + before, a + after)) (0, 0) p.embedded in
  if b = 0 then 0.0 else float_of_int a /. float_of_int b

let run (args : args) =
  let key = key_of_seed args.seed in
  let s, setup_s = repeated_setup ~reps:setup_reps ~setup:(setup args ~key ~seed:args.seed) ~teardown in
  let finish_phase s p =
    let outputs_ok, ratio = check_marks s p in
    (outputs_ok && p.bad_payloads = 0, ratio)
  in
  if not args.trace then begin
    let p, _ = run_phase s ~spans:None ~key ~seconds:args.seconds ~sample_floor:true in
    let correct, ((run_ratio, _, ratio_n) as ratio) = finish_phase s p in
    teardown s;
    let failed = failed_ops p in
    let recognition_failures = count p.verdicts in
    let summary op name =
      let l = Pct.summarize ~name (samples p op) in
      ( metric (name ^ "_p50") "ms" l.Pct.p50 ~samples:l.Pct.n,
        metric (name ^ "_p90") "ms" l.Pct.p90 ~samples:l.Pct.n )
    in
    let r50, r90 = summary "recognize" "recognize_ms" and e50, e90 = summary "embed" "embed_ms" in
    let report =
      [
        ops_per_s p.throughput;
        stratified_rate p;
        metric "failed_share" "share" (share (failed + recognition_failures) p.attempted) ~samples:p.attempted;
        metric "wrong_share" "share" (share (wrong_count p.verdicts) (recognitions p.verdicts))
          ~samples:(recognitions p.verdicts);
        metric "size_overhead" "ratio" (size_overhead p) ~samples:(List.length p.embedded);
        metric "marked_run_ratio" "ratio" run_ratio ~samples:ratio_n;
        metric "setup_s" "s" setup_s ~samples:setup_reps;
        op_ms_gm ~only:(starts_with "recognize ") p.by_host;
        r50; r90; e50; e90;
      ]
    in
    {
      correct;
      attempted = p.attempted;
      failed;
      report;
      contract = contract report;
      per_layer = [];
      notes =
        Printf.sprintf "%d requests (%s), key %s" p.attempted
          (String.concat ", "
             (List.map (fun op -> Printf.sprintf "%s %d" op (List.length (samples p op))) [ "embed"; "recognize"; "get"; "stats" ]))
          key
        :: rate_note p.throughput
        :: strata_note "client ms per op and host" p.by_host
        :: ratio_note ratio :: breakdown p.verdicts
        @ List.map (fun (r, n) -> Printf.sprintf "failure x%d: %s" n r)
            (List.rev p.errors.reasons @ List.rev p.verdicts.reasons);
    }
  end
  else begin
    (* half the time untraced, then a fresh server with an event recorder
       and client spans: the difference is the tracing overhead *)
    let half = args.seconds /. 2.0 in
    let p0, _ = run_phase s ~spans:None ~key ~seconds:half ~sample_floor:false in
    let ok0, _ = finish_phase s p0 in
    teardown s;
    let events = Engine.Events.create () in
    let s = setup ~events args ~key ~seed:args.seed () in
    let spans = Spans.create () in
    let setup_events = List.length (Engine.Events.events events) in
    let p1, _ = run_phase s ~spans:(Some spans) ~key ~seconds:half ~sample_floor:false in
    let ok1, (run_ratio, _, _) = finish_phase s p1 in
    let journal_per_op = replay_layers args s p1 spans in
    teardown s;
    let server_ms op =
      List.filteri (fun i _ -> i >= setup_events) (Engine.Events.events events)
      |> List.filter_map (function
           | Engine.Events.Service_request { op = o; ms; _ } when o = op -> Some ms
           | _ -> None)
    in
    let heavy p = samples p "embed" @ samples p "recognize" in
    (* both phases replay the same per-connection request streams, so
       their first [n] heavy requests are the same requests *)
    let first n p = List.filteri (fun i _ -> i < n) (List.rev (heavy p)) in
    let paired = min (List.length (heavy p0)) (List.length (heavy p1)) in
    let server_heavy = server_ms "embed" @ server_ms "recognize" in
    let counter name = float_of_int (Option.value ~default:0 (List.assoc_opt name (Engine.Events.counters events))) in
    let attempted = p0.attempted + p1.attempted and failed = failed_ops p0 + failed_ops p1 in
    let ms name v = metric name "ms" v in
    Spans.write spans (Filename.concat args.out_dir (Printf.sprintf "spans-serve-mixed-%d.jsonl" args.seed));
    {
      correct = ok0 && ok1;
      attempted;
      failed;
      report =
        [
          metric "size_overhead" "ratio" (size_overhead p1) ~samples:(List.length p1.embedded);
          metric "marked_run_ratio" "ratio" run_ratio;
          metric "setup_s" "s" setup_s ~samples:setup_reps;
        ];
      contract = [];
      per_layer =
        [
          ms "service.embed_server_ms" (Pct.mean (server_ms "embed"));
          ms "service.recognize_server_ms" (Pct.mean (server_ms "recognize"));
          ms "service.wait_ms"
            (if heavy p1 = [] then 0.0
             else
               (List.fold_left ( +. ) 0.0 (heavy p1) -. List.fold_left ( +. ) 0.0 server_heavy)
               /. float_of_int (List.length (heavy p1)));
          ms "service.lookup_ms" (Pct.mean (samples p1 "get" @ samples p1 "stats"));
          metric "service.errors" "count" (counter "service.errors");
          metric "service.shed" "count" (counter "service.shed");
          ms "store.put_ms" (Spans.mean_ms spans "store.put");
          ms "store.get_ms" (Spans.mean_ms spans "store.get");
          metric "store.journal_bytes_per_op" "B/op" journal_per_op;
          ms "stackvm.capture_ms" (Spans.mean_ms spans "stackvm.capture");
          metric "trace.overhead_share" "share"
            (if paired = 0 then 0.0 else (Pct.mean (first paired p1) /. Pct.mean (first paired p0)) -. 1.0);
        ];
      notes =
        Spans.summary spans
        @ breakdown p1.verdicts
        @ List.map (fun (r, n) -> Printf.sprintf "failure x%d: %s" n r)
            (List.rev p0.errors.reasons @ List.rev p1.errors.reasons @ List.rev p0.verdicts.reasons
           @ List.rev p1.verdicts.reasons);
    }
  end
