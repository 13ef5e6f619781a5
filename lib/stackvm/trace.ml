type branch_event = { fidx : int; pc : int; taken : bool }

type snapshot = { locals : int array; globals : int array }

type t = {
  branches : branch_event array;
  events : Tracebuf.t;
  visits : (int * int, snapshot list) Hashtbl.t;
  block_counts : (int * int, int) Hashtbl.t;
  result : Interp.result;
}

let max_snapshots_per_block = 8

let branches_of_buf buf =
  Array.init (Tracebuf.length buf) (fun i ->
      let e = Tracebuf.get buf i in
      { fidx = Tracebuf.fidx e; pc = Tracebuf.pc e; taken = Tracebuf.taken e })

let buf_of_branches events =
  let buf = Tracebuf.create ~capacity:(max 1 (List.length events)) () in
  List.iter (fun { fidx; pc; taken } -> Tracebuf.add buf ~fidx ~pc ~taken) events;
  buf

let capture ?fuel ?(want_snapshots = true) ?(backend = `Interp) prog ~input =
  (* sized for real traces up front — repeated doubling from a small
     capacity would rival the traced run itself in cost *)
  let events = Tracebuf.create ~capacity:65536 () in
  let use_compiled = backend = `Compiled && not want_snapshots in
  if use_compiled then begin
    let result = Compile.run_program ~trace:events ?fuel prog ~input in
    {
      branches = branches_of_buf events;
      events;
      visits = Hashtbl.create 1;
      block_counts = Hashtbl.create 1;
      result;
    }
  end
  else begin
    let visits = Hashtbl.create 256 in
    let block_counts = Hashtbl.create 256 in
    let observer =
      {
        Interp.on_block =
          (fun ~fidx ~pc ~locals ~globals ->
            let key = (fidx, pc) in
            let count = Option.value ~default:0 (Hashtbl.find_opt block_counts key) in
            Hashtbl.replace block_counts key (count + 1);
            if want_snapshots && count < max_snapshots_per_block then begin
              let snap = { locals = Array.copy locals; globals = Array.copy globals } in
              let prev = Option.value ~default:[] (Hashtbl.find_opt visits key) in
              Hashtbl.replace visits key (prev @ [ snap ])
            end);
        Interp.on_branch = (fun ~fidx ~pc ~taken -> Tracebuf.add events ~fidx ~pc ~taken);
      }
    in
    let result = Interp.run ~observer ?fuel prog ~input in
    { branches = branches_of_buf events; events; visits; block_counts; result }
  end

(* Incremental trace-bit decoder: the first dynamic occurrence of a branch
   site fixes its reference direction (bit 0); later occurrences decode to
   whether they deviate.  Keyed by the packed site int, so pushing an
   event costs one int-keyed Hashtbl probe and nothing else: no generic
   polymorphic hash, no option. *)
module Decoder = struct
  (* A multiplicative hash; the table indexes by the hash's low bits, so
     the shift brings the well-mixed high half of the product down. *)
  module Sites = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash site = (site * 0x3C6EF372FE94F82B) lsr 31
  end)

  type t = { first : bool Sites.t }

  let create () = { first = Sites.create 64 }

  let push d packed =
    let site = Tracebuf.site packed in
    let taken = Tracebuf.taken packed in
    match Sites.find d.first site with
    | reference -> taken <> reference
    | exception Not_found ->
        Sites.add d.first site taken;
        false
end

let bits_of_buf buf =
  let d = Decoder.create () in
  let bits = Util.Bitstring.create () in
  Tracebuf.iter (fun e -> Util.Bitstring.append bits (Decoder.push d e)) buf;
  bits

let bits_of_branches events =
  let d = Decoder.create () in
  let bits = Util.Bitstring.create () in
  List.iter
    (fun { fidx; pc; taken } ->
      Util.Bitstring.append bits (Decoder.push d (Tracebuf.pack ~fidx ~pc ~taken)))
    events;
  bits

let bitstring t = bits_of_buf t.events

let visit_count t key = Option.value ~default:0 (Hashtbl.find_opt t.block_counts key)

let hot_blocks t =
  let entries = Hashtbl.fold (fun key count acc -> (key, count) :: acc) t.block_counts [] in
  List.sort (fun (_, c1) (_, c2) -> Stdlib.compare c2 c1) entries

let save_events buf =
  let open Util.Binio in
  let buf_out = Buffer.create (16 * Tracebuf.length buf) in
  Buffer.add_string buf_out "TRC1";
  add_varint buf_out (Tracebuf.length buf);
  Tracebuf.iter
    (fun e ->
      add_varint buf_out (Tracebuf.fidx e);
      add_varint buf_out (Tracebuf.pc e);
      add_varint buf_out (if Tracebuf.taken e then 1 else 0))
    buf;
  Buffer.contents buf_out

let save t = save_events t.events

(* Salvage parser: a trace file is recognition evidence, and the CRT
   redundancy downstream is precisely what makes partial evidence usable —
   so malformed bytes yield the longest cleanly-decoded event prefix plus
   a diagnostic, never an exception.  The event count is read as a plain
   varint, not a bounded list count: a truncated file still declares the
   full count, and its surviving events are the evidence. *)
let salvage_branches s =
  let open Util.Binio in
  let r = reader s in
  match magic r "TRC1" with
  | exception Malformed reason -> ([], Some reason)
  | () -> (
      let out = ref [] in
      let count = ref 0 in
      match
        let n = varint r in
        (* decode sequentially: iteration order must follow the byte stream *)
        for _ = 1 to n do
          let fidx = varint r in
          let pc = varint r in
          let taken = varint r = 1 in
          out := { fidx; pc; taken } :: !out;
          incr count
        done;
        if pos r <> String.length s then
          Some (Printf.sprintf "%d trailing byte(s) after %d event(s)" (String.length s - pos r) n)
        else None
      with
      | diag -> (List.rev !out, diag)
      | exception Malformed reason ->
          ( List.rev !out,
            Some (Printf.sprintf "%s at byte %d; salvaged %d event(s)" reason (pos r) !count) ))

let load_branches s = fst (salvage_branches s)
