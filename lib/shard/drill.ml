(* The failover drill: soak a cluster with registry traffic through the
   router, kill the replicated leader mid-batch, and account for every
   response.  One implementation drives `pathmark cluster drill`, the CI
   smoke and `bench --cluster-only`, so the number CI gates on and the
   number the bench reports are the same measurement. *)

type report = {
  shards : int;
  ops : int;  (** router calls issued (puts + gets + marks) *)
  lost : int;  (** calls that errored or returned the wrong payload *)
  marks : int;  (** embed/recognize pairs completed *)
  failover_ms : float;  (** promotion latency, from the router's event *)
  recovery_ms : float;
      (** kill to first successful answer for a key the dead shard owned *)
  ms_p50 : float;
  ms_p99 : float;
}

(* the same level check the shard tests use: the follower's persisted
   offset has reached the leader's journal size and every leader blob is
   mirrored — only then can a kill lose nothing *)
let replica_level ~leader_root ~replica_root =
  let jpath = Filename.concat leader_root "journal.pmj" in
  let opath = Filename.concat replica_root "replica.offset" in
  try
    let jsize = (Unix.stat jpath).Unix.st_size in
    let ic = open_in opath in
    let applied =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> Option.value ~default:0 (int_of_string_opt (String.trim (input_line ic))))
    in
    let blobs_mirrored =
      let objects = Filename.concat leader_root "objects" in
      (not (Sys.file_exists objects))
      || Array.for_all
           (fun shard ->
             let dir = Filename.concat objects shard in
             (not (Sys.is_directory dir))
             || Array.for_all
                  (fun f ->
                    Sys.file_exists (Filename.concat (Filename.concat (Filename.concat replica_root "objects") shard) f))
                  (Sys.readdir dir))
           (Sys.readdir objects)
    in
    applied >= jsize && blobs_mirrored
  with Unix.Unix_error _ | Sys_error _ | End_of_file -> false

let run ?(shards = 3) ?(replicate = [ 0 ]) ?(ops = 10_000) ?(kill_frac = 0.6) ?mark_program
    ?(mark_input = []) ?(marks = 0) ?(log = fun _ -> ()) ~dir () =
  let failover_ms = ref 0.0 in
  let events =
    Engine.Events.create
      ~sink:(function
        | Engine.Events.Failover { ms; _ } -> failover_ms := ms
        | _ -> ())
      ()
  in
  let cluster =
    Cluster.start ~events ~fsync:false ~domains:1 ~conn_workers:2 ~replicate ~dir ~shards ()
  in
  let router = Router.create ~events ~deadline:30.0 (Cluster.endpoints cluster) in
  let victim = "shard-0" in
  let lost = ref 0 in
  let issued = ref 0 in
  let marks_done = ref 0 in
  let latencies = ref [] in
  let timed key request check =
    incr issued;
    let t0 = Unix.gettimeofday () in
    let outcome = Router.call router ~key request in
    latencies := ((Unix.gettimeofday () -. t0) *. 1000.0) :: !latencies;
    match outcome with
    | Ok response -> if not (check response) then incr lost
    | Error _ -> incr lost
  in
  let put i =
    let key = Printf.sprintf "soak-%d" i in
    timed key
      (Service.Proto.Put_artifact
         { kind = Store.Artifact.Report; key; label = ""; payload = Printf.sprintf "payload %d" i })
      (function Service.Proto.Stored _ -> true | _ -> false)
  in
  let get i =
    let key = Printf.sprintf "soak-%d" i in
    timed key
      (Service.Proto.Get_artifact { kind = Store.Artifact.Report; key })
      (function
        | Service.Proto.Artifact { payload; _ } -> payload = Printf.sprintf "payload %d" i
        | _ -> false)
  in
  let mark i =
    match mark_program with
    | None -> ()
    | Some program ->
        let key = Printf.sprintf "mark-%d" i in
        let fingerprint = Bignum.of_int (1_000_000 + i) in
        let digest = ref "" in
        timed key
          (Service.Proto.Embed
             {
               scheme = "jwm";
               program;
               key;
               bits = 32;
               pieces = 6;
               fingerprint;
               input = mark_input;
               seed = Int64.of_int i;
             })
          (function
            | Service.Proto.Embedded { digest = d; _ } ->
                digest := d;
                true
            | _ -> false);
        if !digest <> "" then begin
          timed key
            (Service.Proto.Recognize
               { scheme = "jwm"; source = `Stored !digest; key; bits = 32; input = mark_input })
            (function
              | Service.Proto.Recognized { value = Some v; _ } -> Bignum.equal v fingerprint
              | _ -> false);
          incr marks_done
        end
  in
  let half = int_of_float (float_of_int ops *. kill_frac) in
  let mark_every = if marks > 0 then max 1 (ops / marks) else max_int in
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      ignore (Cluster.stop cluster))
    (fun () ->
      for i = 0 to half - 1 do
        put i;
        get i;
        if i mod mark_every = 0 && !marks_done < marks then mark i
      done;
      log (Printf.sprintf "soaked %d ops; waiting for %s's replica to catch up" !issued victim);
      (match (Cluster.root_of_shard cluster victim, Cluster.replica_root_of cluster victim) with
      | Some lroot, Some rroot ->
          let barrier = Unix.gettimeofday () +. 30.0 in
          while
            (not (replica_level ~leader_root:lroot ~replica_root:rroot))
            && Unix.gettimeofday () < barrier
          do
            Unix.sleepf 0.05
          done
      | _ -> ());
      log (Printf.sprintf "killing %s under load" victim);
      Cluster.kill cluster victim;
      (* recovery: first answered call for a key the dead shard owned *)
      let owned =
        let rec find i =
          if i >= ops then 0
          else if Router.route router ~key:(Printf.sprintf "soak-%d" i) = victim then i
          else find (i + 1)
        in
        find 0
      in
      let t_kill = Unix.gettimeofday () in
      get owned;
      let recovery_ms = (Unix.gettimeofday () -. t_kill) *. 1000.0 in
      for i = half to ops - 1 do
        put i;
        get i;
        if i mod mark_every = 0 && !marks_done < marks then mark i
      done;
      (* every acknowledged write from before the kill must still answer *)
      for i = 0 to ops - 1 do
        get i
      done;
      let sorted = Array.of_list !latencies in
      Array.sort compare sorted;
      {
        shards;
        ops = !issued;
        lost = !lost;
        marks = !marks_done;
        failover_ms = !failover_ms;
        recovery_ms;
        ms_p50 = Util.Stats.percentile sorted 0.50;
        ms_p99 = Util.Stats.percentile sorted 0.99;
      })
