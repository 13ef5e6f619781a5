type outcome =
  | Vm_embedded of { program : string; bytes_before : int; bytes_after : int }
  | Vm_recognized of { value : Bignum.t option; matched : bool option }
  | Vm_attacked of { survived : (string * bool) list }
  | Native_embedded of {
      binary : string;
      begin_addr : int;
      end_addr : int;
      bytes_before : int;
      bytes_after : int;
    }
  | Audited of {
      passes : string list;
      marked_fns : string list;
      flagged_fns : string list;
      clean_flagged : string list;
      ndiags : int;
    }
  | Tournament_measured of {
      attack : string;
      control : bool;
      survived : bool;
      false_positive : bool;
      confidence : float;
      nfaults : int;
    }
  | Failed of { reason : string; attempts : int }

type result = { job : Job.t; outcome : outcome; ms : float; attempts : int; from_cache : bool }

let ok r =
  match r.outcome with
  | Failed _ -> false
  | Vm_recognized { value; matched } ->
      value <> None && matched <> Some false
  | Vm_attacked { survived } -> List.for_all snd survived
  | Vm_embedded _ | Native_embedded _ -> true
  | Audited _ -> true
  (* a killed mark is a measurement, not a job failure; only a false
     positive on a control cell counts against the batch *)
  | Tournament_measured { false_positive; _ } -> not false_positive

let describe_outcome = function
  | Vm_embedded { bytes_before; bytes_after; _ } ->
      Printf.sprintf "embedded (%d -> %d bytes)" bytes_before bytes_after
  | Vm_recognized { value; matched } -> (
      match (value, matched) with
      | None, _ -> "no watermark recovered"
      | Some w, Some true -> Printf.sprintf "recognized %s (match)" (Bignum.to_string w)
      | Some w, Some false -> Printf.sprintf "recognized %s (MISMATCH)" (Bignum.to_string w)
      | Some w, None -> Printf.sprintf "recognized %s" (Bignum.to_string w))
  | Vm_attacked { survived } ->
      Printf.sprintf "survived %d/%d attacks" (List.length (List.filter snd survived)) (List.length survived)
  | Native_embedded { bytes_before; bytes_after; begin_addr; end_addr; _ } ->
      Printf.sprintf "embedded natively (%d -> %d bytes, region 0x%x-0x%x)" bytes_before bytes_after
        begin_addr end_addr
  | Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags } ->
      let hits = List.filter (fun f -> List.mem f marked_fns) flagged_fns in
      Printf.sprintf "audited [%s]: located %d/%d marked function(s), %d diag(s), %d clean false \
                      positive(s)"
        (String.concat "," passes) (List.length hits) (List.length marked_fns) ndiags
        (List.length clean_flagged)
  | Tournament_measured { attack; control; survived; false_positive; confidence; nfaults } ->
      if control then
        Printf.sprintf "control cell: %s"
          (if false_positive then "FALSE POSITIVE on unmarked program" else "clean")
      else
        Printf.sprintf "cell %s: %s (confidence %.2f%s)" attack
          (if survived then "survived" else "killed")
          confidence
          (if nfaults > 0 then Printf.sprintf ", %d fault(s)" nfaults else "")
  | Failed { reason; attempts } -> Printf.sprintf "failed after %d attempt(s): %s" attempts reason

(* ---- outcome (de)serialization for the result cache ----

   Hand-rolled tagged format rather than [Marshal]: decoding untrusted
   spill-file bytes must fail soft (return [None]), and [Marshal] cannot
   promise that. *)

let encode_outcome o =
  let open Util.Binio in
  let buf = Buffer.create 128 in
  let add_big buf w = add_str buf (Bignum.to_string w) in
  Buffer.add_string buf "PBO1";
  (match o with
  | Vm_embedded { program; bytes_before; bytes_after } ->
      Buffer.add_char buf 'E';
      add_str buf program;
      add_varint buf bytes_before;
      add_varint buf bytes_after
  | Vm_recognized { value; matched } ->
      Buffer.add_char buf 'R';
      add_opt buf add_big value;
      add_opt buf add_bool matched
  | Vm_attacked { survived } ->
      Buffer.add_char buf 'A';
      add_list buf
        (fun buf (name, alive) ->
          add_str buf name;
          add_bool buf alive)
        survived
  | Native_embedded { binary; begin_addr; end_addr; bytes_before; bytes_after } ->
      Buffer.add_char buf 'N';
      add_str buf binary;
      add_varint buf begin_addr;
      add_varint buf end_addr;
      add_varint buf bytes_before;
      add_varint buf bytes_after
  | Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags } ->
      Buffer.add_char buf 'U';
      List.iter (add_list buf add_str) [ passes; marked_fns; flagged_fns; clean_flagged ];
      add_varint buf ndiags
  | Tournament_measured { attack; control; survived; false_positive; confidence; nfaults } ->
      Buffer.add_char buf 'T';
      add_str buf attack;
      add_bool buf control;
      add_bool buf survived;
      add_bool buf false_positive;
      (* hex float: exact round-trip through the text form *)
      add_str buf (Printf.sprintf "%h" confidence);
      add_varint buf nfaults
  | Failed { reason; attempts } ->
      Buffer.add_char buf 'F';
      add_str buf reason;
      add_varint buf attempts);
  Buffer.contents buf

let decode_outcome s =
  let open Util.Binio in
  let r = reader s in
  let big r = try Bignum.of_string (str r) with _ -> raise (Malformed "bad bignum") in
  match
    magic r "PBO1";
    let o =
      match Char.chr (byte r) with
      | 'E' ->
          let program = str r in
          let bytes_before = varint r in
          let bytes_after = varint r in
          Vm_embedded { program; bytes_before; bytes_after }
      | 'R' ->
          let value = opt r big in
          let matched = opt r bool in
          Vm_recognized { value; matched }
      | 'A' ->
          let survived =
            list r (fun r ->
                let name = str r in
                (name, bool r))
          in
          Vm_attacked { survived }
      | 'N' ->
          let binary = str r in
          let begin_addr = varint r in
          let end_addr = varint r in
          let bytes_before = varint r in
          let bytes_after = varint r in
          Native_embedded { binary; begin_addr; end_addr; bytes_before; bytes_after }
      | 'U' ->
          let passes = list r str in
          let marked_fns = list r str in
          let flagged_fns = list r str in
          let clean_flagged = list r str in
          let ndiags = varint r in
          Audited { passes; marked_fns; flagged_fns; clean_flagged; ndiags }
      | 'T' ->
          let attack = str r in
          let control = bool r in
          let survived = bool r in
          let false_positive = bool r in
          let confidence =
            match float_of_string_opt (str r) with Some c -> c | None -> raise (Malformed "bad float")
          in
          let nfaults = varint r in
          Tournament_measured { attack; control; survived; false_positive; confidence; nfaults }
      | 'F' ->
          let reason = str r in
          let attempts = varint r in
          Failed { reason; attempts }
      | _ -> raise (Malformed "bad outcome tag")
    in
    finish r;
    o
  with
  | o -> Some o
  | exception Malformed _ -> None

(* ---- job execution ---- *)

let now () = Unix.gettimeofday ()

let emit events ev = Option.iter (fun t -> Events.emit t ev) events

let timed ?events ~id ~stage f =
  let t0 = now () in
  let v = f () in
  emit events (Events.Stage_time { id; stage; ms = (now () -. t0) *. 1000.0 });
  v

let default_recognize_fuel = 200_000_000

let match_against expected value =
  Option.map (fun e -> match value with Some v -> Bignum.equal v e | None -> false) expected

(* A tournament cell's verdict.  Control cells measure credibility: any
   recovery of the fingerprint from the unmarked program is a false
   positive; on a marked cell it is survival. *)
let cell_recovered (cell : Job.cell_spec) value =
  match value with Some v -> Bignum.equal v cell.Job.cell_fingerprint | None -> false

let measure_cell (cell : Job.cell_spec) ~value ~confidence ~nfaults =
  let recovered = cell_recovered cell value and control = cell.Job.cell_control in
  Tournament_measured
    {
      attack = cell.Job.cell_attack;
      control;
      survived = (not control) && recovered;
      false_positive = control && recovered;
      confidence;
      nfaults;
    }

(* Every job but the jwm embed goes through the generic registry
   interface ({!Scheme.Builtin}): recognition replays the cached trace
   through the scheme's branch-stream recognizer when it has one, so the
   fault plan corrupts the replayed stream the same way for every scheme.
   Composite names ("jwm+gwm") resolve to {!Scheme.Compose} and make the
   double-watermark mode batchable.  [compute_vm] keeps only the jwm embed,
   which shares one snapshot-bearing trace across a fleet of fingerprints
   of the same host. *)
let scheme_spec (job : Job.t) ~redundancy =
  {
    Scheme.Watermarker.key = job.Job.key;
    bits = job.Job.bits;
    input = job.Job.input;
    seed = job.Job.seed;
    fuel = job.Job.fuel;
    redundancy;
  }

let compute_vm_scheme ?inject ?cache ?events ?(backend = `Compiled) ~id (job : Job.t) program =
  let (module W) = Scheme.Builtin.find_exn job.Job.scheme in
  if W.caps.Scheme.Watermarker.track <> Scheme.Watermarker.Vm then
    failwith (Printf.sprintf "scheme %s cannot run on the VM track" job.Job.scheme);
  let embed fingerprint spec =
    let e =
      timed ?events ~id ~stage:"embed" (fun () ->
          W.embed fingerprint spec (Scheme.Watermarker.Vm_program program))
    in
    match e.Scheme.Watermarker.carrier with
    | Scheme.Watermarker.Vm_program marked -> (marked, e)
    | _ -> failwith (Printf.sprintf "scheme %s embedded a non-VM carrier" job.Job.scheme)
  in
  (* replay a branch stream through the scheme's recognizer after [plan]
     corrupted it, reporting how many events the plan hit *)
  let recognize_injected recognize_branches spec ~plan ~salt branches =
    let branches, nfaults =
      match plan with None -> (branches, 0) | Some plan -> Fault.Inject.branches plan ~salt branches
    in
    if nfaults > 0 then
      emit events
        (Events.Fault_injected
           {
             id;
             label = job.Job.label;
             layer = "trace";
             detail = Printf.sprintf "%d branch event(s) corrupted" nfaults;
           });
    (timed ?events ~id ~stage:"recognize" (fun () -> recognize_branches spec branches), nfaults)
  in
  match job.Job.action with
  | Job.Embed { fingerprint; pieces } ->
      let marked, e = embed fingerprint (scheme_spec job ~redundancy:pieces) in
      Vm_embedded
        {
          program = Stackvm.Serialize.encode marked;
          bytes_before = e.Scheme.Watermarker.bytes_before;
          bytes_after = e.Scheme.Watermarker.bytes_after;
        }
  | Job.Recognize { expected } ->
      let spec = scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy in
      let r =
        match W.recognize_branches with
        | Some recognize_branches ->
            (* offline branch-stream recognition: shares the cached trace
               and lets the fault plan corrupt the replayed stream *)
            let fuel = Option.value ~default:default_recognize_fuel job.Job.fuel in
            let capture () =
              Stackvm.Trace.save
                (Stackvm.Trace.capture ~fuel ~want_snapshots:false ~backend program
                   ~input:job.Job.input)
            in
            let trace_bytes =
              timed ?events ~id ~stage:"trace" (fun () ->
                  match cache with
                  | Some c -> Cache.with_bytes ?events c ~stage:"trace" ~key:(Job.trace_digest job) capture
                  | None -> capture ())
            in
            let r, nfaults =
              recognize_injected recognize_branches spec ~plan:inject ~salt:(Job.trace_digest job)
                (Stackvm.Trace.load_branches trace_bytes)
            in
            if r.Scheme.Watermarker.value <> None && nfaults > 0 then
              emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 });
            r
        | None ->
            timed ?events ~id ~stage:"recognize" (fun () ->
                W.recognize spec (Scheme.Watermarker.Vm_program program))
      in
      (* not recovered, but some consistent evidence survived *)
      if r.Scheme.Watermarker.value = None && r.Scheme.Watermarker.confidence > 0.0 then
        emit events (Events.Counter { name = "recognitions.partial"; delta = 1 });
      let value = r.Scheme.Watermarker.value in
      Vm_recognized { value; matched = match_against expected value }
  | Job.Attack_campaign { expected; attacks } ->
      let rng = Util.Prng.create job.Job.seed in
      let spec = scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy in
      let survived =
        List.map
          (fun name ->
            match List.assoc_opt name Vmattacks.Attacks.all with
            | None -> failwith ("unknown attack: " ^ name)
            | Some attack ->
                let attacked = attack (Util.Prng.split rng) program in
                let alive =
                  timed ?events ~id ~stage:("attack:" ^ name) (fun () ->
                      match W.recognize spec (Scheme.Watermarker.Vm_program attacked) with
                      | { Scheme.Watermarker.value = Some v; _ } -> Bignum.equal v expected
                      | _ -> false)
                in
                (name, alive))
          attacks
      in
      Vm_attacked { survived }
  | Job.Tournament_cell cell ->
      let spec = scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy in
      let fingerprint = cell.Job.cell_fingerprint in
      (* control cells measure credibility: recognize the clean program,
         unattacked — anything recovered that matches the fingerprint is a
         false positive *)
      let target =
        if cell.Job.cell_control then program else fst (embed fingerprint spec)
      in
      let attacked =
        if cell.Job.cell_control || cell.Job.cell_attack = "identity" then target
        else
          match List.assoc_opt cell.Job.cell_attack Vmattacks.Attacks.all with
          | None -> failwith ("unknown attack: " ^ cell.Job.cell_attack)
          | Some attack ->
              timed ?events ~id ~stage:("attack:" ^ cell.Job.cell_attack) (fun () ->
                  attack (Util.Prng.create job.Job.seed) target)
      in
      (* the cell's own plan governs trace corruption (the batch-level
         [inject] still drives crash/fuel/cache faults in [execute]) *)
      let plan = Fault.Inject.make ~seed:cell.Job.cell_fault_seed cell.Job.cell_faults in
      let r, nfaults =
        match W.recognize_branches with
        | Some recognize_branches when not (Fault.Inject.is_empty plan) ->
            let fuel = Option.value ~default:default_recognize_fuel job.Job.fuel in
            let branches =
              timed ?events ~id ~stage:"trace" (fun () ->
                  Array.to_list
                    (Stackvm.Trace.capture ~fuel ~want_snapshots:false ~backend attacked
                       ~input:job.Job.input)
                      .Stackvm.Trace.branches)
            in
            recognize_injected recognize_branches spec ~plan:(Some plan)
              ~salt:(Printf.sprintf "cell:%s:%s" (Job.trace_digest job) cell.Job.cell_attack)
              branches
        | _ ->
            ( timed ?events ~id ~stage:"recognize" (fun () ->
                  W.recognize spec (Scheme.Watermarker.Vm_program attacked)),
              0 )
      in
      let value = r.Scheme.Watermarker.value in
      if cell_recovered cell value && nfaults > 0 then
        emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 });
      measure_cell cell ~value ~confidence:r.Scheme.Watermarker.confidence ~nfaults
  | Job.Audit { fingerprint } ->
      let marked, _ =
        embed fingerprint (scheme_spec job ~redundancy:Scheme.Watermarker.default_redundancy)
      in
      let passes =
        match
          List.filter
            (fun p -> List.mem p Analysis.Locator.known_passes)
            W.caps.Scheme.Watermarker.locator_passes
        with
        | [] -> Analysis.Locator.default_passes
        | ps -> ps
      in
      (* ground truth: the functions the embedder added or rewrote *)
      let clean_code = Hashtbl.create 16 in
      Array.iter
        (fun (f : Stackvm.Program.func) -> Hashtbl.replace clean_code f.Stackvm.Program.name f)
        program.Stackvm.Program.funcs;
      let marked_fns =
        Array.to_list marked.Stackvm.Program.funcs
        |> List.filter_map (fun (f : Stackvm.Program.func) ->
               match Hashtbl.find_opt clean_code f.Stackvm.Program.name with
               | Some g when g = f -> None
               | _ -> Some f.Stackvm.Program.name)
        |> List.sort compare
      in
      let report =
        timed ?events ~id ~stage:"audit" (fun () -> Analysis.Locator.run ~passes marked)
      in
      let clean_report = Analysis.Locator.run ~passes program in
      Audited
        {
          passes;
          marked_fns;
          flagged_fns = report.Analysis.Locator.flagged;
          clean_flagged = clean_report.Analysis.Locator.flagged;
          ndiags = List.length report.Analysis.Locator.diags;
        }

let compute_vm ?inject ?cache ?events ?(backend = `Compiled) ~id (job : Job.t) program =
  match job.Job.action with
  | Job.Embed { fingerprint; pieces } when job.Job.scheme = Job.default_vm_scheme ->
      let capture () =
        Stackvm.Trace.capture ?fuel:job.Job.fuel ~want_snapshots:true program ~input:job.Job.input
      in
      let trace =
        timed ?events ~id ~stage:"trace" (fun () ->
            match cache with
            | Some c -> Cache.with_trace ?events c ~key:(Job.trace_digest job) capture
            | None -> capture ())
      in
      let spec =
        {
          Jwm.Embed.passphrase = job.Job.key;
          watermark = fingerprint;
          watermark_bits = job.Job.bits;
          pieces;
          input = job.Job.input;
        }
      in
      let report =
        timed ?events ~id ~stage:"embed" (fun () ->
            Jwm.Embed.embed ~trace ~seed:job.Job.seed ?fuel:job.Job.fuel spec program)
      in
      Vm_embedded
        {
          program = Stackvm.Serialize.encode report.Jwm.Embed.program;
          bytes_before = report.Jwm.Embed.bytes_before;
          bytes_after = report.Jwm.Embed.bytes_after;
        }
  | _ -> compute_vm_scheme ?inject ?cache ?events ~backend ~id job program

let default_native_passes = 5

(* Extract the watermark from [binary], optionally through a noisy tracer
   whose observations [plan] garbles: several independently-garbled views
   of one deterministic observation log, majority-voted.  Returns the
   recovered value with the extractor's confidence in it. *)
let nwm_extract_value ?events ~id ~label ~salt ~plan binary ~begin_addr ~end_addr ~input =
  match plan with
  | None -> (
      match Nwm.Extract.extract binary ~begin_addr ~end_addr ~input with
      | Ok ex -> (Some (Nwm.Extract.watermark ex), 1.0)
      | Error _ -> (None, 0.0))
  | Some plan ->
      let per_pass = Hashtbl.create 4 in
      let g ~pass v =
        let f =
          match Hashtbl.find_opt per_pass pass with
          | Some f -> f
          | None ->
              let f =
                Option.value ~default:Fun.id
                  (Fault.Inject.garble plan ~salt:(Printf.sprintf "obs:%s:%d" salt pass))
              in
              Hashtbl.replace per_pass pass f;
              f
        in
        f v
      in
      emit events
        (Events.Fault_injected
           {
             id;
             label;
             layer = "obs";
             detail =
               Printf.sprintf "garbled tracer observations (%d passes, majority vote)"
                 default_native_passes;
           });
      let d =
        Nwm.Extract.extract_degraded ~passes:default_native_passes ~garble:g binary ~begin_addr
          ~end_addr ~input
      in
      (match d.Nwm.Extract.value with
      | Some _ when d.Nwm.Extract.agreement < 1.0 ->
          emit events (Events.Counter { name = "recognitions.degraded"; delta = 1 })
      | None -> emit events (Events.Counter { name = "recognitions.partial"; delta = 1 })
      | Some _ -> ());
      (d.Nwm.Extract.value, d.Nwm.Extract.confidence)

(* The native track runs nwm only, directly: its recognizer needs the
   embedder's region span, so a native job embeds before it measures and
   there is no stand-alone native recognize or attack job. *)
let compute_native ?events ~id (job : Job.t) program =
  if job.Job.scheme <> Job.default_native_scheme then
    failwith (Printf.sprintf "scheme %s cannot run on the native track" job.Job.scheme);
  let embed fingerprint =
    timed ?events ~id ~stage:"native-embed" (fun () ->
        Nwm.Embed.embed ~seed:job.Job.seed ?fuel:job.Job.fuel ~watermark:fingerprint
          ~bits:job.Job.bits ~training_input:job.Job.input program)
  in
  match job.Job.action with
  | Job.Embed { fingerprint; _ } ->
      let report = embed fingerprint in
      Native_embedded
        {
          binary = Nativesim.Binary.encode report.Nwm.Embed.binary;
          begin_addr = report.Nwm.Embed.begin_addr;
          end_addr = report.Nwm.Embed.end_addr;
          bytes_before = report.Nwm.Embed.bytes_before;
          bytes_after = report.Nwm.Embed.bytes_after;
        }
  | Job.Recognize _ | Job.Attack_campaign _ ->
      failwith
        (Printf.sprintf "scheme %s: %s jobs need the embedded region and cannot run on their own"
           job.Job.scheme (Job.kind job))
  | Job.Tournament_cell cell ->
      let fingerprint = cell.Job.cell_fingerprint in
      (* the embed always runs — even control cells need the region span
         the extractor will probe *)
      let report = embed fingerprint in
      let begin_addr = report.Nwm.Embed.begin_addr and end_addr = report.Nwm.Embed.end_addr in
      let target =
        if cell.Job.cell_control then
          (* credibility control: probe the clean binary over the span the
             embedder would have used *)
          Nativesim.Asm.assemble program
        else report.Nwm.Embed.binary
      in
      let attacked =
        if cell.Job.cell_control || cell.Job.cell_attack = "identity" then target
        else
          let rng = Util.Prng.create job.Job.seed in
          timed ?events ~id ~stage:("attack:" ^ cell.Job.cell_attack) (fun () ->
              match cell.Job.cell_attack with
              | "noop-insertion" -> Nattacks.Attacks.noop_insertion ~rate:0.05 rng target
              | "branch-sense-inversion" ->
                  Nattacks.Attacks.branch_sense_inversion ~fraction:1.0 rng target
              | "double-watermark" ->
                  let seed2 = Int64.lognot job.Job.seed in
                  let second = Bignum.random_bits (Util.Prng.create seed2) job.Job.bits in
                  Nattacks.Attacks.double_watermark ~seed:seed2 ~watermark:second
                    ~bits:job.Job.bits ~training_input:job.Job.input target
              | "bypass" ->
                  Nattacks.Attacks.bypass rng target ~begin_addr ~end_addr ~input:job.Job.input
              | "reroute" ->
                  Nattacks.Attacks.reroute rng target ~begin_addr ~end_addr ~input:job.Job.input
              | "static-strip" -> (Nattacks.Static_strip.strip target).Nattacks.Static_strip.binary
              | a -> failwith ("unknown native attack: " ^ a))
      in
      (* the cell's own plan drives the noisy-tracer extraction *)
      let cell_plan = Fault.Inject.make ~seed:cell.Job.cell_fault_seed cell.Job.cell_faults in
      let plan =
        if Fault.Inject.garble cell_plan ~salt:"probe" <> None then Some cell_plan else None
      in
      let value, confidence =
        timed ?events ~id ~stage:"native-extract" (fun () ->
            nwm_extract_value ?events ~id ~label:job.Job.label
              ~salt:(Job.trace_digest job ^ ":" ^ cell.Job.cell_attack)
              ~plan attacked ~begin_addr ~end_addr ~input:job.Job.input)
      in
      measure_cell cell ~value ~confidence ~nfaults:(if Option.is_some plan then 1 else 0)
  | Job.Audit { fingerprint } ->
      let report = embed fingerprint in
      let clean_binary = Nativesim.Asm.assemble program in
      let clean_diags = Analysis.Nlint.lint clean_binary in
      let marked_diags =
        timed ?events ~id ~stage:"audit" (fun () -> Analysis.Nlint.lint report.Nwm.Embed.binary)
      in
      (* the native track has no function granularity: the embedded
         region plays the role of the single "marked function" *)
      let in_region (d : Analysis.Diag.t) =
        match d.Analysis.Diag.loc with
        | Analysis.Diag.Native { addr } ->
            addr >= report.Nwm.Embed.begin_addr && addr < report.Nwm.Embed.end_addr
        | _ -> false
      in
      Audited
        {
          passes = [ "nlint" ];
          marked_fns = [ "region" ];
          flagged_fns = (if List.exists in_region marked_diags then [ "region" ] else []);
          clean_flagged = (if clean_diags <> [] then [ "binary" ] else []);
          ndiags = List.length marked_diags;
        }

(* ---- retry policy, deadline budget, circuit breaker ---- *)

type policy = {
  retries : int;
  backoff_ms : float;
  backoff_factor : float;
  max_backoff_ms : float;
  fuel_escalation : float;
  deadline_ms : float option;
  breaker_threshold : int;
}

let default_policy =
  {
    retries = 0;
    backoff_ms = 0.0;
    backoff_factor = 2.0;
    max_backoff_ms = 250.0;
    fuel_escalation = 1.0;
    deadline_ms = None;
    breaker_threshold = 0;
  }

let backoff_delay policy ~attempt =
  if policy.backoff_ms <= 0.0 then 0.0
  else
    Float.min policy.max_backoff_ms
      (policy.backoff_ms *. (policy.backoff_factor ** float_of_int (attempt - 1)))

(* The breaker is keyed by the job's program digest (its spec identity up
   to action parameters): after [threshold] consecutive crash-class
   failures of one spec, later jobs on that spec fail fast while their
   peers proceed.  A success resets the count. *)
type breaker = {
  b_mutex : Mutex.t;
  b_threshold : int;
  b_consecutive : (string, int) Hashtbl.t;
  b_open : (string, unit) Hashtbl.t;
}

let breaker_create ~threshold =
  {
    b_mutex = Mutex.create ();
    b_threshold = threshold;
    b_consecutive = Hashtbl.create 8;
    b_open = Hashtbl.create 8;
  }

let breaker_blocked br key =
  Mutex.lock br.b_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock br.b_mutex) (fun () -> Hashtbl.mem br.b_open key)

let breaker_note ?events br ~label key ~crashed =
  Mutex.lock br.b_mutex;
  let trip =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock br.b_mutex)
      (fun () ->
        if not crashed then begin
          Hashtbl.remove br.b_consecutive key;
          None
        end
        else begin
          let n = 1 + Option.value ~default:0 (Hashtbl.find_opt br.b_consecutive key) in
          Hashtbl.replace br.b_consecutive key n;
          if n >= br.b_threshold && not (Hashtbl.mem br.b_open key) then begin
            Hashtbl.replace br.b_open key ();
            Some n
          end
          else None
        end)
  in
  Option.iter (fun failures -> emit events (Events.Breaker_open { label; key; failures })) trip

exception Injected_crash

let () =
  Printexc.register_printer (function Injected_crash -> Some "injected worker crash" | _ -> None)

let execute ?(policy = default_policy) ?inject ?breaker ?deadline_at ?cache ?events ?backend ~id
    (job : Job.t) =
  let t0 = now () in
  emit events (Events.Job_start { id; label = job.Job.label; domain = (Domain.self () :> int) });
  let finish outcome ~attempts ~from_cache =
    let ms = (now () -. t0) *. 1000.0 in
    let is_ok = match outcome with Failed _ -> false | _ -> true in
    emit events
      (Events.Job_finish
         {
           id;
           label = job.Job.label;
           ok = is_ok;
           detail = describe_outcome outcome;
           ms;
           attempts;
           cached = from_cache;
         });
    { job; outcome; ms; attempts; from_cache }
  in
  let stage = Job.kind job in
  (* an active fault plan changes what a job computes, so its results must
     not share cache entries with clean runs of the same spec *)
  let digest =
    lazy
      (match inject with
      | Some plan -> Digest.to_hex (Digest.string (Job.digest job ^ "+" ^ Fault.Inject.describe plan))
      | None -> Job.digest job)
  in
  let over_deadline () = match deadline_at with Some t -> now () >= t | None -> false in
  let cached_outcome =
    match cache with
    | None -> None
    | Some c ->
        Option.bind (Cache.find_bytes ?events c ~stage ~key:(Lazy.force digest)) decode_outcome
  in
  match cached_outcome with
  | Some outcome -> finish outcome ~attempts:0 ~from_cache:true
  | None ->
      let spec_key = Job.program_digest job in
      if (match breaker with Some br -> breaker_blocked br spec_key | None -> false) then begin
        emit events (Events.Counter { name = "breaker.short_circuits"; delta = 1 });
        finish
          (Failed { reason = "circuit breaker open for this job spec"; attempts = 0 })
          ~attempts:0 ~from_cache:false
      end
      else if over_deadline () then
        finish (Failed { reason = "batch deadline exhausted"; attempts = 0 }) ~attempts:0 ~from_cache:false
      else begin
        (* a fuel-cut fault shrinks the base budget once; escalation then
           regrows it per retry, so a transiently starved job can recover *)
        let base_fuel =
          match inject with
          | None -> job.Job.fuel
          | Some plan ->
              let cut = Fault.Inject.adjust_fuel plan job.Job.fuel in
              if cut <> job.Job.fuel then
                emit events
                  (Events.Fault_injected
                     {
                       id;
                       label = job.Job.label;
                       layer = "fuel";
                       detail =
                         Printf.sprintf "fuel budget cut to %s"
                           (match cut with Some f -> string_of_int f | None -> "unlimited");
                     });
              cut
        in
        let job_for_attempt n =
          match base_fuel with
          | Some f when policy.fuel_escalation > 1.0 && n > 1 ->
              let scaled = float_of_int f *. (policy.fuel_escalation ** float_of_int (n - 1)) in
              { job with Job.fuel = Some (int_of_float (Float.min scaled 1e15)) }
          | fuel -> { job with Job.fuel }
        in
        let compute n =
          (match inject with
          | Some plan
            when Fault.Inject.crash_decision plan ~salt:(Printf.sprintf "crash:%s:%d" (Lazy.force digest) n)
            ->
              emit events
                (Events.Fault_injected
                   {
                     id;
                     label = job.Job.label;
                     layer = "crash";
                     detail = Printf.sprintf "worker crash on attempt %d" n;
                   });
              raise Injected_crash
          | _ -> ());
          let j = job_for_attempt n in
          match j.Job.host with
          | Job.Vm program -> compute_vm ?inject ?cache ?events ?backend ~id j program
          | Job.Native program -> compute_native ?events ~id j program
        in
        let note_crash crashed =
          match breaker with
          | Some br -> breaker_note ?events br ~label:job.Job.label spec_key ~crashed
          | None -> ()
        in
        let rec attempt n =
          match compute n with
          | outcome ->
              note_crash false;
              Option.iter
                (fun c ->
                  let bytes = encode_outcome outcome in
                  let bytes =
                    match inject with
                    | None -> bytes
                    | Some plan ->
                        let corrupted, fired =
                          Fault.Inject.cache_entry plan ~salt:("cache:" ^ Lazy.force digest) bytes
                        in
                        if fired then
                          emit events
                            (Events.Fault_injected
                               {
                                 id;
                                 label = job.Job.label;
                                 layer = "cache";
                                 detail = "stored result entry corrupted";
                               });
                        corrupted
                  in
                  Cache.store_bytes ?events c ~stage ~key:(Lazy.force digest) bytes)
                cache;
              finish outcome ~attempts:n ~from_cache:false
          | exception e ->
              note_crash true;
              let reason = Printexc.to_string e in
              if n > policy.retries || over_deadline () then
                finish (Failed { reason; attempts = n }) ~attempts:n ~from_cache:false
              else begin
                let backoff_ms = backoff_delay policy ~attempt:n in
                emit events (Events.Job_retry { id; label = job.Job.label; attempt = n; reason; backoff_ms });
                if backoff_ms > 0.0 then Unix.sleepf (backoff_ms /. 1000.0);
                attempt (n + 1)
              end
        in
        attempt 1
      end

(* Capture each distinct embed trace once, up front, so concurrently
   starting jobs on the same (program, input) share it instead of racing
   into duplicate captures.  Jobs whose finished result is already cached
   are skipped — a warm re-run must stay trace-free. *)
let prewarm ~domains ?cache ?events jobs =
  match cache with
  | None -> ()
  | Some c ->
      let distinct = Hashtbl.create 8 in
      List.iter
        (fun (j : Job.t) ->
          match (j.Job.host, j.Job.action) with
          | Job.Vm program, Job.Embed _
            when j.Job.scheme = Job.default_vm_scheme
                 && not (Cache.mem_bytes c ~stage:(Job.kind j) ~key:(Job.digest j)) ->
              let tk = Job.trace_digest j in
              if not (Hashtbl.mem distinct tk) then
                Hashtbl.replace distinct tk (fun () ->
                    ignore
                      (Cache.with_trace ?events c ~key:tk (fun () ->
                           Stackvm.Trace.capture ?fuel:j.Job.fuel ~want_snapshots:true program
                             ~input:j.Job.input)))
          | _ -> ())
        jobs;
      let thunks = Hashtbl.fold (fun _ thunk acc -> thunk :: acc) distinct [] in
      if thunks <> [] then ignore (Pool.run_list ~domains thunks)

let run ?(domains = 1) ?retries ?policy ?inject ?cache ?events ?backend jobs =
  let policy =
    match (policy, retries) with
    | Some p, Some r -> { p with retries = r }
    | Some p, None -> p
    | None, Some r -> { default_policy with retries = r }
    | None, None -> default_policy
  in
  let inject = match inject with Some p when not (Fault.Inject.is_empty p) -> Some p | _ -> None in
  let t0 = now () in
  emit events (Events.Batch_start { jobs = List.length jobs; domains = max 1 domains });
  prewarm ~domains ?cache ?events jobs;
  let deadline_at = Option.map (fun ms -> t0 +. (ms /. 1000.0)) policy.deadline_ms in
  let breaker =
    if policy.breaker_threshold > 0 then Some (breaker_create ~threshold:policy.breaker_threshold)
    else None
  in
  let thunks =
    List.mapi
      (fun id job ->
        fun () -> execute ~policy ?inject ?breaker ?deadline_at ?cache ?events ?backend ~id job)
      jobs
  in
  let results =
    List.map2
      (fun job -> function
        | Ok r -> r
        | Error e ->
            (* a worker blew up outside [execute]'s own isolation; keep the
               batch alive and report the job as failed *)
            { job; outcome = Failed { reason = Printexc.to_string e; attempts = 1 }; ms = 0.0;
              attempts = 1; from_cache = false })
      jobs
      (Pool.run_list ~domains thunks)
  in
  let failed = List.length (List.filter (fun r -> match r.outcome with Failed _ -> true | _ -> false) results) in
  emit events
    (Events.Batch_finish { ok = List.length results - failed; failed; ms = (now () -. t0) *. 1000.0 });
  results
