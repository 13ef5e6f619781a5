(* The native-track pipeline of Section 4, on the gzip-analog benchmark:
   branch-function embedding with tamper-proofing, then the five attacks of
   §5.2.2, demonstrating which break the program and how the two tracers
   differ under rerouting.

   Run with: dune exec examples/native_pipeline.exe *)

open Pathmark

let () =
  let workload = Workloads.Spec.find "gzip" in
  let program = Workloads.Workload.native_program workload in
  let training = List.hd workload.Workloads.Workload.alt_inputs in
  let reference = workload.Workloads.Workload.input in
  let fingerprint = Bignum.of_string "17361641481138401520" in

  let report = Nwm.Embed.embed ~watermark:fingerprint ~bits:64 ~training_input:training program in
  let wm = report.Nwm.Embed.binary in
  Printf.printf "workload: %s; %d-bit watermark, %d tamper-proofed jumps, %d -> %d bytes\n"
    workload.Workloads.Workload.name report.Nwm.Embed.bits report.Nwm.Embed.tamper_cells
    report.Nwm.Embed.bytes_before report.Nwm.Embed.bytes_after;

  (* extraction on the clean watermarked binary *)
  let extract ?kind bin =
    match
      Nwm.Extract.extract ?kind bin ~begin_addr:report.Nwm.Embed.begin_addr
        ~end_addr:report.Nwm.Embed.end_addr ~input:training
    with
    | Ok ex -> Some (Nwm.Extract.watermark ex)
    | Error _ -> None
  in
  (match extract wm with
  | Some w -> Printf.printf "extracted fingerprint: %s\n\n" (Bignum.to_string w)
  | None -> failwith "extraction failed");

  let inputs = [ reference; training ] in
  let verdict name attacked =
    let breaks = Nattacks.Attacks.broken wm attacked ~inputs in
    Printf.printf "%-22s program %s\n" name (if breaks then "BREAKS" else "keeps working")
  in

  let rng () = Util.Prng.create 7L in
  verdict "noop-insertion" (Nattacks.Attacks.noop_insertion ~rate:0.05 (rng ()) wm);
  verdict "branch-inversion" (Nattacks.Attacks.branch_sense_inversion ~fraction:1.0 (rng ()) wm);
  verdict "double-watermark"
    (Nattacks.Attacks.double_watermark ~watermark:(Bignum.of_int 5555) ~bits:32
       ~training_input:training wm);
  verdict "bypass"
    (Nattacks.Attacks.bypass (rng ()) wm ~begin_addr:report.Nwm.Embed.begin_addr
       ~end_addr:report.Nwm.Embed.end_addr ~input:training);

  (* rerouting: the program survives, so compare the tracers *)
  let rerouted =
    Nattacks.Attacks.reroute (rng ()) wm ~begin_addr:report.Nwm.Embed.begin_addr
      ~end_addr:report.Nwm.Embed.end_addr ~input:training
  in
  verdict "reroute" rerouted;
  let describe = function
    | Some w when Bignum.equal w fingerprint -> "recovers the fingerprint"
    | Some _ -> "extracts a WRONG value"
    | None -> "extracts nothing"
  in
  Printf.printf "  simple tracer: %s\n" (describe (extract ~kind:Nwm.Extract.Simple rerouted));
  Printf.printf "  smart tracer:  %s\n" (describe (extract ~kind:Nwm.Extract.Smart rerouted))
