(* Shared pieces of the three workloads: arguments, the host programs,
   seeded draws, recognition classification, output checks, and the
   result record every workload returns. *)

type args = { workload : string; seed : int; seconds : float; trace : bool; out_dir : string }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let v = f () in
  (v, (now () -. t0) *. 1000.0)

(* ---- hosts ---- *)

(* The 13 VM workloads: the ten SPECint analogs, caffeine, jess and
   miniinterp. *)
let vm_hosts =
  Workloads.Spec.all
  @ [ Workloads.Caffeine.suite; Workloads.Jesslite.engine; Workloads.Miniinterp.interpreter ]

let widths = [ 16; 32; 64 ]

(* Compiled from source on every call (the workload library caches its
   own compile, which would hide this cost from set-up after the first
   repetition). *)
let compile_vm (w : Workloads.Workload.t) = Minic.To_stackvm.compile_source w.source

let key_of_seed seed = Printf.sprintf "perfbench-key-%d" seed

(* A nonzero fingerprint of at most [width] bits. *)
let rec fingerprint rng width =
  let v = Bignum.random_bits rng width in
  if Bignum.is_zero v then fingerprint rng width else v

(* An endless stream over [xs] in seeded order: each pass is a fresh
   shuffle, so every value appears equally often within any pass and a
   run's mix does not drift with its seed. *)
let cycler rng xs =
  if xs = [] then invalid_arg "cycler: empty";
  let queue = ref [] in
  fun () ->
    if !queue = [] then begin
      let a = Array.of_list xs in
      Util.Prng.shuffle rng a;
      queue := Array.to_list a
    end;
    let x = List.hd !queue in
    queue := List.tl !queue;
    x

(* ---- recognition outcomes ---- *)

type verdict =
  | Ok_found  (** the embedded fingerprint, or nothing on a control *)
  | Wrong  (** a value other than the embedded fingerprint *)
  | Missed  (** nothing recovered from an unattacked mark *)
  | Killed  (** nothing recovered from an attacked mark: a measurement *)
  | False_positive  (** any value from an unmarked control *)

let verdict_name = function
  | Ok_found -> "ok"
  | Wrong -> "wrong"
  | Missed -> "missed"
  | Killed -> "killed"
  | False_positive -> "false-positive"

(* [expected] is [None] for an unmarked control. *)
let classify ~attacked ~expected value =
  match (expected, value) with
  | None, None -> Ok_found
  | None, Some _ -> False_positive
  | Some fp, Some v when Bignum.equal v fp -> Ok_found
  | Some _, Some _ -> Wrong
  | Some _, None -> if attacked then Killed else Missed

let is_wrong = function Wrong | False_positive -> true | _ -> false

(* A recognition failure in the sense of [failed_share]: wrong, false
   positive or missed.  These are measured and printed; the result line's
   [failed] counts only ops that did not complete (errors, refusals,
   timeouts). *)
let is_failure = function Wrong | False_positive | Missed -> true | Ok_found | Killed -> false

(* Tally of recognition verdicts and failure reasons for one run. *)
type tally = {
  lock : Mutex.t;
  mutable verdicts : (string * verdict) list;  (* group (e.g. width) x verdict *)
  mutable reasons : (string * int) list;  (* failure reason -> count *)
}

let tally () = { lock = Mutex.create (); verdicts = []; reasons = [] }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let note_verdict t ~group v = with_lock t.lock (fun () -> t.verdicts <- (group, v) :: t.verdicts)

let note_failure t reason =
  with_lock t.lock (fun () ->
      let n = Option.value ~default:0 (List.assoc_opt reason t.reasons) in
      t.reasons <- (reason, n + 1) :: List.remove_assoc reason t.reasons)

let recognitions t = List.length t.verdicts

let wrong_count t = List.length (List.filter (fun (_, v) -> is_wrong v) t.verdicts)

let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Verdict counts per group, e.g. "16: ok 12, wrong 5, killed 1". *)
let breakdown t =
  let groups = List.sort_uniq compare (List.map fst t.verdicts) in
  List.map
    (fun g ->
      let vs = List.filter_map (fun (g', v) -> if g = g' then Some v else None) t.verdicts in
      let counts =
        List.filter_map
          (fun v ->
            match List.length (List.filter (( = ) v) vs) with
            | 0 -> None
            | n -> Some (Printf.sprintf "%s %d" (verdict_name v) n))
          [ Ok_found; Wrong; Missed; Killed; False_positive ]
      in
      let wrong = List.length (List.filter is_wrong vs) in
      Printf.sprintf "%s: %d recognitions, wrong_share %.4f (%s)" g (List.length vs)
        (share wrong (List.length vs))
        (String.concat ", " counts))
    groups

(* ---- output checks ---- *)

(* A host prepared in set-up: compiled afresh, with its reference
   outputs from the independent MiniC interpreter. *)
type host = { w : Workloads.Workload.t; prog : Stackvm.Program.t; expected : int list }

let prepare_host (w : Workloads.Workload.t) =
  { w; prog = compile_vm w; expected = Workloads.Workload.expected_outputs w w.input }

let vm_outputs_ok h prog =
  (Stackvm.Compile.run_program prog ~input:h.w.input).Stackvm.Interp.outputs = h.expected

let ratio_pairs = 48

(* Compiled run time of a marked program over its clean host on the
   secret input (Fig. 8a): per pair the median of [reps] interleaved
   runs.  Returns the median and p90 over the first [ratio_pairs] pairs,
   and their count; the median keeps one mark whose pieces landed in a
   hot loop from swinging the run. *)
let marked_run_ratio ?(reps = 3) pairs =
  let time code input =
    let t0 = now () in
    ignore (Stackvm.Compile.run code ~input);
    now () -. t0
  in
  let ratios =
    List.filteri (fun i _ -> i < ratio_pairs) pairs
    |> List.filter_map (fun (h, marked) ->
           let cc = Stackvm.Compile.of_program h.prog and mc = Stackvm.Compile.of_program marked in
           let ms = ref [] and cs = ref [] in
           for _ = 1 to reps do
             ms := time mc h.w.input :: !ms;
             cs := time cc h.w.input :: !cs
           done;
           let clean = Pct.median !cs in
           if clean > 0.0 then Some (Pct.median !ms /. clean) else None)
  in
  match ratios with
  | [] -> (0.0, 0.0, 0)
  | _ ->
      let a = Pct.sorted_of ratios in
      (Pct.nearest_rank a 50.0, Pct.nearest_rank a 90.0, Array.length a)

let ratio_note (_, p90, n) = Printf.sprintf "marked_run_ratio p90 %.4f over %d marks" p90 n

(* ---- timed phase ---- *)

type metric = { name : string; value : float; unit_ : string; samples : int option }

let metric ?samples name unit_ value = { name; value; unit_; samples }


(* An untraced phase runs for the requested seconds and then on until
   each timed op has [min_samples] samples, so that ten lie beyond its
   p90; [max_phase] seconds bound it either way. *)
let min_samples = 100

let max_phase = 120.0

(* Measured throughput: the ops finished per second from the start of
   the phase to its last finished op (printed as [ops_per_s] but not
   gated, see [strata]), and for the notes the median over windows of
   about [rate_window] seconds. *)
let rate_window = 3.0

type rate = { t0 : float; rlock : Mutex.t; mutable done_at : float list }

let rate () = { t0 = now (); rlock = Mutex.create (); done_at = [] }

let finished r = with_lock r.rlock (fun () -> r.done_at <- now () :: r.done_at)

let elapsed r = match r.done_at with [] -> 0.0 | last :: _ -> last -. r.t0

let ops_per_s r =
  let ops = List.length r.done_at in
  metric "ops_per_s" "1/s" (if ops = 0 then 0.0 else float_of_int ops /. elapsed r) ~samples:ops

let rate_note r =
  let elapsed = elapsed r in
  let windows = max 1 (int_of_float (elapsed /. rate_window)) in
  let width = elapsed /. float_of_int windows in
  let counts = Array.make windows 0 in
  List.iter
    (fun t ->
      let k = min (windows - 1) (int_of_float ((t -. r.t0) /. width)) in
      counts.(k) <- counts.(k) + 1)
    r.done_at;
  Printf.sprintf "ops_per_s: %d ops in %.2f s; median of %d windows of %.2f s %.4f/s" (List.length r.done_at)
    elapsed windows width
    (Pct.median (Array.to_list (Array.map (fun c -> float_of_int c /. width) counts)))

(* ---- stratified figures ---- *)

(* Op costs differ tenfold between hosts, and a mark whose pieces land in
   a hot loop costs up to ten times its host's median.  A run's mean
   rate or p90 therefore follows which marks its seed drew as much as the
   code, and the p90 of the host mix sits at the gap below the slowest
   host.  So the gated figures are built from per-stratum medians
   (stratum = host, or batch kind) over the workload's fixed mix. *)
type strata = { slock : Mutex.t; by_key : (string, float list) Hashtbl.t }

let strata () = { slock = Mutex.create (); by_key = Hashtbl.create 16 }

let add_sample st key ms =
  with_lock st.slock (fun () ->
      Hashtbl.replace st.by_key key (ms :: Option.value ~default:[] (Hashtbl.find_opt st.by_key key)))

(* (key, median, samples) for every stratum whose key satisfies [only],
   sorted by key. *)
let medians ?(only = fun _ -> true) st =
  with_lock st.slock (fun () ->
      Hashtbl.fold (fun k v acc -> if only k then (k, Pct.median v, List.length v) :: acc else acc) st.by_key [])
  |> List.sort compare

let mean_of_medians ?only st = Pct.mean (List.map (fun (_, m, _) -> m) (medians ?only st))

(* [op_ms_gm]: the geometric mean over strata of the stratum's median
   latency, so that every host weighs the same whatever its cost. *)
let op_ms_gm ?only st =
  let ms = medians ?only st in
  let n = List.length ms in
  metric "op_ms_gm" "ms"
    (if n = 0 then 0.0 else exp (List.fold_left (fun acc (_, m, _) -> acc +. log m) 0.0 ms /. float_of_int n))
    ~samples:n

let strata_note what st =
  Printf.sprintf "%s medians: %s" what
    (String.concat ", " (List.map (fun (k, m, n) -> Printf.sprintf "%s %.1f (n=%d)" k m n) (medians st)))

(* ---- set-up ---- *)

(* Run the set-up [reps] times, tearing down all but the last, and report
   the median wall time in seconds. *)
let repeated_setup ~reps ~setup ~teardown =
  let rec go k times =
    let v, ms = timed setup in
    if k = 1 then (v, Pct.median ((ms /. 1000.0) :: times))
    else begin
      teardown v;
      go (k - 1) ((ms /. 1000.0) :: times)
    end
  in
  go reps []

(* ---- results ---- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  report : metric list;  (** every end-to-end metric the workload has, printed *)
  contract : metric list;  (** the end-to-end metrics of BENCHMARK.json *)
  per_layer : metric list;  (** traced run only *)
  notes : string list;
}

(* The BENCHMARK.json end-to-end metrics, picked from a workload's
   report.  [ops_per_s] and the percentiles are printed but not gated
   (see [strata]). *)
let contract report =
  let find name = List.find (fun m -> m.name = name) report in
  List.map find [ "median_ops_per_s"; "op_ms_gm"; "size_overhead"; "marked_run_ratio"; "setup_s" ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
            float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Scratch space inside the checkout for registries and sockets. *)
let scratch_dir args name =
  let dir = Filename.concat args.out_dir (Printf.sprintf "%s-%d-%d" name args.seed (Unix.getpid ())) in
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p dir;
  dir

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
