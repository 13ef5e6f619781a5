(* version 2 added the scheme name to embed/recognize requests; version 3
   added the cluster vocabulary (ping/journal-fetch/blob-fetch/promote and
   their responses, plus the Overloaded shed signal) *)
let version = 3
let max_frame = 64 * 1024 * 1024

(* ---- payload codec: {!Util.Binio}'s, plus the kinds, decimal integers
   and entry records the protocol carries ---- *)

open Util.Binio

let add_kind buf k = add_str buf (Store.Artifact.kind_to_string k)
let add_int_list buf xs = add_list buf (fun buf x -> add_str buf (string_of_int x)) xs

let add_info buf (i : Proto.entry_info) =
  add_kind buf i.Proto.kind;
  add_str buf i.key;
  add_str buf i.label;
  add_varint buf i.size;
  add_varint buf i.seq

let kind r =
  match Store.Artifact.kind_of_string (str r) with
  | Some k -> k
  | None -> raise (Malformed "unknown artifact kind")

let int_of_str r =
  let s = str r in
  match int_of_string_opt s with Some v -> v | None -> raise (Malformed ("bad integer " ^ s))

let info r =
  let kind = kind r in
  let key = str r in
  let label = str r in
  let size = varint r in
  let seq = varint r in
  { Proto.kind; key; label; size; seq }

let bignum r =
  let s = str r in
  try Bignum.of_string s with _ -> raise (Malformed ("bad bignum " ^ s))

let with_reader payload f =
  let r = reader payload in
  try
    let v = byte r in
    if v <> version then Error (Printf.sprintf "protocol version %d, expected %d" v version)
    else begin
      let decoded = f r in
      finish r;
      Ok decoded
    end
  with Malformed msg -> Error msg

let payload f =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr version);
  f buf;
  Buffer.contents buf

(* ---- requests ---- *)

let encode_request req =
  payload (fun buf ->
      match req with
      | Proto.Put_artifact { kind; key; label; payload } ->
          Buffer.add_char buf 'P';
          add_kind buf kind;
          add_str buf key;
          add_str buf label;
          add_str buf payload
      | Proto.Get_artifact { kind; key } ->
          Buffer.add_char buf 'G';
          add_kind buf kind;
          add_str buf key
      | Proto.Embed { scheme; program; key; bits; pieces; fingerprint; input; seed } ->
          Buffer.add_char buf 'E';
          add_str buf scheme;
          add_str buf key;
          add_varint buf bits;
          add_varint buf pieces;
          add_str buf (Bignum.to_string fingerprint);
          add_str buf (Int64.to_string seed);
          add_int_list buf input;
          add_str buf program
      | Proto.Recognize { scheme; source; key; bits; input } ->
          Buffer.add_char buf 'R';
          add_str buf scheme;
          (match source with
          | `Bytes b ->
              Buffer.add_char buf 'b';
              add_str buf b
          | `Stored d ->
              Buffer.add_char buf 's';
              add_str buf d);
          add_str buf key;
          add_varint buf bits;
          add_int_list buf input
      | Proto.Stats -> Buffer.add_char buf 'S'
      | Proto.List_artifacts -> Buffer.add_char buf 'L'
      | Proto.Ping -> Buffer.add_char buf 'I'
      | Proto.Journal_fetch { from_; max_bytes } ->
          Buffer.add_char buf 'J';
          add_varint buf from_;
          add_varint buf max_bytes
      | Proto.Blob_fetch { digest } ->
          Buffer.add_char buf 'B';
          add_str buf digest
      | Proto.Promote -> Buffer.add_char buf 'M'
      | Proto.Shutdown -> Buffer.add_char buf 'Q')

let decode_request s =
  with_reader s (fun r ->
      match Char.chr (byte r) with
      | 'P' ->
          let kind = kind r in
          let key = str r in
          let label = str r in
          let payload = str r in
          Proto.Put_artifact { kind; key; label; payload }
      | 'G' ->
          let kind = kind r in
          let key = str r in
          Proto.Get_artifact { kind; key }
      | 'E' ->
          let scheme = str r in
          let key = str r in
          let bits = varint r in
          let pieces = varint r in
          let fingerprint = bignum r in
          let seed =
            let s = str r in
            match Int64.of_string_opt s with
            | Some v -> v
            | None -> raise (Malformed ("bad seed " ^ s))
          in
          let input = list r int_of_str in
          let program = str r in
          Proto.Embed { scheme; program; key; bits; pieces; fingerprint; input; seed }
      | 'R' ->
          let scheme = str r in
          let source =
            match Char.chr (byte r) with
            | 'b' -> `Bytes (str r)
            | 's' -> `Stored (str r)
            | _ -> raise (Malformed "bad recognize source tag")
          in
          let key = str r in
          let bits = varint r in
          let input = list r int_of_str in
          Proto.Recognize { scheme; source; key; bits; input }
      | 'S' -> Proto.Stats
      | 'L' -> Proto.List_artifacts
      | 'I' -> Proto.Ping
      | 'J' ->
          let from_ = varint r in
          let max_bytes = varint r in
          Proto.Journal_fetch { from_; max_bytes }
      | 'B' -> Proto.Blob_fetch { digest = str r }
      | 'M' -> Proto.Promote
      | 'Q' -> Proto.Shutdown
      | _ -> raise (Malformed "bad request tag"))

(* ---- responses ---- *)

let encode_response resp =
  payload (fun buf ->
      match resp with
      | Proto.Stored i ->
          Buffer.add_char buf 's';
          add_info buf i
      | Proto.Artifact { info; payload } ->
          Buffer.add_char buf 'a';
          add_info buf info;
          add_str buf payload
      | Proto.Embedded { digest; label; bytes_before; bytes_after } ->
          Buffer.add_char buf 'e';
          add_str buf digest;
          add_str buf label;
          add_varint buf bytes_before;
          add_varint buf bytes_after
      | Proto.Recognized { value; confidence; registered } ->
          Buffer.add_char buf 'r';
          add_opt buf (fun buf v -> add_str buf (Bignum.to_string v)) value;
          add_str buf (Printf.sprintf "%h" confidence);
          add_opt buf add_info registered
      | Proto.Stats_reply { entries; journal_bytes; payload_bytes; puts; gets; requests; errors } ->
          Buffer.add_char buf 't';
          List.iter (add_varint buf) [ entries; journal_bytes; payload_bytes; puts; gets; requests; errors ]
      | Proto.Listing infos ->
          Buffer.add_char buf 'l';
          add_list buf add_info infos
      | Proto.Pong { role; entries; journal_bytes; state_digest } ->
          Buffer.add_char buf 'g';
          add_str buf role;
          add_varint buf entries;
          add_varint buf journal_bytes;
          add_str buf state_digest
      | Proto.Journal_data { from_; total; data } ->
          Buffer.add_char buf 'j';
          add_varint buf from_;
          add_varint buf total;
          add_str buf data
      | Proto.Blob_data { digest; payload } ->
          Buffer.add_char buf 'b';
          add_str buf digest;
          add_opt buf add_str payload
      | Proto.Promoted -> Buffer.add_char buf 'm'
      | Proto.Overloaded { inflight; limit } ->
          Buffer.add_char buf 'o';
          add_varint buf inflight;
          add_varint buf limit
      | Proto.Shutting_down -> Buffer.add_char buf 'q'
      | Proto.Error { code; message } ->
          Buffer.add_char buf 'x';
          add_str buf code;
          add_str buf message)

let decode_response s =
  with_reader s (fun r ->
      match Char.chr (byte r) with
      | 's' -> Proto.Stored (info r)
      | 'a' ->
          let i = info r in
          let payload = str r in
          Proto.Artifact { info = i; payload }
      | 'e' ->
          let digest = str r in
          let label = str r in
          let bytes_before = varint r in
          let bytes_after = varint r in
          Proto.Embedded { digest; label; bytes_before; bytes_after }
      | 'r' ->
          let value = opt r bignum in
          let confidence =
            let s = str r in
            match float_of_string_opt s with
            | Some f -> f
            | None -> raise (Malformed ("bad float " ^ s))
          in
          let registered = opt r info in
          Proto.Recognized { value; confidence; registered }
      | 't' ->
          let entries = varint r in
          let journal_bytes = varint r in
          let payload_bytes = varint r in
          let puts = varint r in
          let gets = varint r in
          let requests = varint r in
          let errors = varint r in
          Proto.Stats_reply { entries; journal_bytes; payload_bytes; puts; gets; requests; errors }
      | 'l' -> Proto.Listing (list r info)
      | 'g' ->
          let role = str r in
          let entries = varint r in
          let journal_bytes = varint r in
          let state_digest = str r in
          Proto.Pong { role; entries; journal_bytes; state_digest }
      | 'j' ->
          let from_ = varint r in
          let total = varint r in
          let data = str r in
          Proto.Journal_data { from_; total; data }
      | 'b' ->
          let digest = str r in
          let payload = opt r str in
          Proto.Blob_data { digest; payload }
      | 'm' -> Proto.Promoted
      | 'o' ->
          let inflight = varint r in
          let limit = varint r in
          Proto.Overloaded { inflight; limit }
      | 'q' -> Proto.Shutting_down
      | 'x' ->
          let code = str r in
          let message = str r in
          Proto.Error { code; message }
      | _ -> raise (Malformed "bad response tag"))

(* ---- framing ---- *)

(* A peer that drained and closed (a killed shard, a gone client) turns
   the next write into EPIPE — which must arrive as the exception the
   retry/failover paths handle, not as a process-killing SIGPIPE.
   Forced on first frame I/O so every transport user is covered. *)
let shield_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let write_all fd b =
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

let write_frame fd payload =
  Lazy.force shield_sigpipe;
  let n = String.length payload in
  if n > max_frame then failwith "Wire.write_frame: frame too large";
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b

let read_exact fd n ~eof_ok =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while (not !eof) && !off < n do
    let r = Unix.read fd b !off (n - !off) in
    if r = 0 then eof := true else off := !off + r
  done;
  if !eof then
    if !off = 0 && eof_ok then None else failwith "Wire.read_frame: unexpected EOF"
  else Some (Bytes.unsafe_to_string b)

let read_frame fd =
  Lazy.force shield_sigpipe;
  match read_exact fd 4 ~eof_ok:true with
  | None -> None
  | Some header ->
      let n = Int32.to_int (String.get_int32_le header 0) land 0xFFFFFFFF in
      if n > max_frame then failwith "Wire.read_frame: frame too large";
      if n = 0 then Some ""
      else read_exact fd n ~eof_ok:false
