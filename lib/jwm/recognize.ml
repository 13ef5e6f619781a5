type partial = {
  pieces_recovered : int;
  primes_covered : int;
  primes_total : int;
  redundancy_margin : int;
  confidence : float;
}

type outcome = {
  value : Bignum.t option;
  report : Codec.Recombine.report;
  partial : partial;
  trace_branches : int;
  steps : int;
  diagnostic : string option;
}

let partial_of_report params report =
  let m = Codec.Recombine.margin_of_report params report in
  {
    pieces_recovered = m.Codec.Recombine.pieces_used;
    primes_covered = m.Codec.Recombine.primes_covered;
    primes_total = m.Codec.Recombine.primes_total;
    redundancy_margin = m.Codec.Recombine.redundancy_margin;
    confidence = Codec.Recombine.confidence params report;
  }

let outcome_of_report params ~trace_branches ~steps ~diagnostic report =
  {
    value = report.Codec.Recombine.value;
    report;
    partial = partial_of_report params report;
    trace_branches;
    steps;
    diagnostic;
  }

(* ---- one session for every mode ----

   Every recognition folds packed branch events, in trace order, through
   the incremental trace-bit decoder into one {!Codec.Harvest}
   accumulator; a periodic recombination probe lets a streaming caller
   stop the traced run as soon as the recovered value's redundancy margin
   clears the confidence target.  Batch recognition is the same session
   with the probe off, so streaming and batch see the same statements in
   the same order by construction. *)

type stream = {
  params : Codec.Params.t;
  decoder : Stackvm.Trace.Decoder.t;
  harvest : Codec.Harvest.t;
  check_every : int;
  confidence_target : float;
  mutable since_check : int;
  mutable stmts_at_check : int;
  mutable decided : bool;
  mutable final_report : Codec.Recombine.report option;
}

let start ~confidence_target ~check_every params =
  {
    params;
    decoder = Stackvm.Trace.Decoder.create ();
    harvest = Codec.Harvest.create params;
    check_every;
    confidence_target;
    since_check = 0;
    stmts_at_check = 0;
    decided = false;
    final_report = None;
  }

let stream_start ?(confidence_target = 0.9) ?(check_every = 4096) ~passphrase ~watermark_bits () =
  start ~confidence_target ~check_every (Codec.Params.make ~passphrase ~watermark_bits ())

let probe s =
  let report = Codec.Recombine.recover s.params (Codec.Harvest.statements s.harvest) in
  if
    report.Codec.Recombine.value <> None
    && Codec.Recombine.confidence s.params report >= s.confidence_target
  then begin
    s.decided <- true;
    s.final_report <- Some report
  end

let stream_push s packed =
  if s.decided then true
  else begin
    Codec.Harvest.push s.harvest (Stackvm.Trace.Decoder.push s.decoder packed);
    if s.check_every > 0 then begin
      s.since_check <- s.since_check + 1;
      if s.since_check >= s.check_every then begin
        s.since_check <- 0;
        let total = Codec.Harvest.count s.harvest in
        (* recombination is the expensive part: only probe when new evidence
           arrived since the last probe *)
        if total > s.stmts_at_check then begin
          s.stmts_at_check <- total;
          probe s
        end
      end
    end;
    s.decided
  end

let stream_push_event s ~fidx ~pc ~taken =
  stream_push s (Stackvm.Tracebuf.pack ~fidx ~pc ~taken)

let stream_decided s = s.decided

let finish ~steps s =
  let report =
    match s.final_report with
    | Some r when s.decided -> r
    | _ -> Codec.Recombine.recover s.params (Codec.Harvest.statements s.harvest)
  in
  outcome_of_report s.params ~trace_branches:(Codec.Harvest.length s.harvest) ~steps ~diagnostic:None
    report

let stream_finish s = finish ~steps:0 s

(* batch recognition: the session with the probe off *)
let batch params = start ~confidence_target:infinity ~check_every:0 params

let recognize_branches ~passphrase ~watermark_bits events =
  let s = batch (Codec.Params.make ~passphrase ~watermark_bits ()) in
  List.iter (fun { Stackvm.Trace.fidx; pc; taken } -> ignore (stream_push_event s ~fidx ~pc ~taken)) events;
  stream_finish s

let degraded params e =
  (* a corrupt program that the execution backend itself rejects is an
     experimental outcome (the mark is destroyed), not an error *)
  let report = Codec.Recombine.recover params [] in
  outcome_of_report params ~trace_branches:0 ~steps:0
    ~diagnostic:(Some (Printexc.to_string e))
    report

(* Run [prog] with every branch event pushed into [s] as it happens: the
   compiled hot path materializes no trace at all. *)
let run_session ~backend ~fuel s prog ~input =
  match backend with
  | `Interp -> (
      match Stackvm.Trace.capture ~fuel ~want_snapshots:false prog ~input with
      | trace ->
          Stackvm.Tracebuf.iter (fun e -> ignore (stream_push s e)) trace.Stackvm.Trace.events;
          (finish ~steps:trace.Stackvm.Trace.result.Stackvm.Interp.steps s, `Completed)
      | exception e -> (degraded s.params e, `Completed))
  | `Compiled -> (
      match
        Stackvm.Compile.run_streaming ~fuel (Stackvm.Compile.of_program prog) ~input
          ~push:(stream_push s)
      with
      | `Completed result -> (finish ~steps:result.Stackvm.Interp.steps s, `Completed)
      | `Stopped steps -> (finish ~steps s, `Stopped_early)
      | exception e -> (degraded s.params e, `Completed))

let recognize ?(backend = `Compiled) ?(fuel = 200_000_000) ~passphrase ~watermark_bits ~input prog =
  fst (run_session ~backend ~fuel (batch (Codec.Params.make ~passphrase ~watermark_bits ())) prog ~input)

let recognize_streaming ?(fuel = 200_000_000) ?confidence_target ?check_every ~passphrase
    ~watermark_bits ~input prog =
  run_session ~backend:`Compiled ~fuel
    (stream_start ?confidence_target ?check_every ~passphrase ~watermark_bits ())
    prog ~input

let recognizes ?fuel ~passphrase ~watermark_bits ~input ~expected prog =
  match (recognize ?fuel ~passphrase ~watermark_bits ~input prog).value with
  | Some v -> Bignum.equal v expected
  | None -> false
