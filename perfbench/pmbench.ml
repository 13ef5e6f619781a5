(* The pathmark benchmark (see perfbench/README.md).

   pmbench --workload NAME --seed N --seconds S --trace 0|1

   Prints a human report (every end-to-end metric the workload has, with
   unit and sample count, the verdict breakdown and every failure reason)
   and, as its last line, one JSON object: {correct, attempted, failed,
   metrics}.  The metrics are the end-to-end metrics of BENCHMARK.json
   with --trace 0 and the per-layer metrics with --trace 1.  Exits
   nonzero only on a harness error or a replica mismatch. *)

open Common

let workloads =
  [
    ("recognize-scan", Recognize_scan.run);
    ("fleet-batch", Fleet_batch.run);
    ("serve-mixed", Serve_mixed.run);
  ]

let usage () =
  prerr_endline
    "usage: pmbench --workload recognize-scan|fleet-batch|serve-mixed --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let rec go acc = function
    | [] -> acc
    | flag :: v :: rest when String.length flag > 2 && String.sub flag 0 2 = "--" ->
        go ((String.sub flag 2 (String.length flag - 2), v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  {
    workload = get "workload";
    seed = int "seed";
    seconds = float_of_int (int "seconds");
    trace = (match get "trace" with "0" -> false | "1" -> true | _ -> usage ());
    out_dir = "perfbench/out";
  }

let json_metric m = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name m.value m.unit_

let print_metric m =
  Printf.printf "  %-32s %16.6f %-6s%s\n" m.name m.value m.unit_
    (match m.samples with Some n -> Printf.sprintf " (n=%d)" n | None -> "")

let () =
  let args = parse Sys.argv in
  let run =
    match List.assoc_opt args.workload workloads with
    | Some run -> run
    | None ->
        Printf.eprintf "unknown workload %S\n" args.workload;
        exit 2
  in
  if not (Sys.file_exists args.out_dir) then Sys.mkdir args.out_dir 0o755;
  match run args with
  | exception Recognize_scan.Replica_mismatch msg ->
      Printf.eprintf "replica mismatch: %s\n" msg;
      exit 3
  | exception Pct.Too_few_samples msg ->
      Printf.eprintf "harness error: %s\n" msg;
      exit 4
  | r ->
      let rss = metric "peak_rss_mb" "MB" (peak_rss_mb ()) in
      Printf.printf "== %s seed %d, %.0f s, %s ==\n" args.workload args.seed args.seconds
        (if args.trace then "traced run (per-layer)" else "untraced run (end to end)");
      Printf.printf "end-to-end metrics%s:\n" (if args.trace then " (traced, not comparable)" else "");
      List.iter print_metric (r.report @ [ rss ]);
      if args.trace then begin
        Printf.printf "per-layer metrics:\n";
        List.iter print_metric r.per_layer
      end;
      List.iter (fun n -> Printf.printf "  %s\n" n) r.notes;
      Printf.printf "attempted %d, failed %d (ops that did not complete), outputs %s\n" r.attempted r.failed
        (if r.correct then "correct" else "INCORRECT");
      let metrics = if args.trace then r.per_layer else r.contract in
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" r.correct
        r.attempted r.failed
        (String.concat ", " (List.map json_metric metrics))
