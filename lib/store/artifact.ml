type kind = Vm_program | Native_program | Trace | Key_material | Report | Cache_entry

let all_kinds = [ Vm_program; Native_program; Trace; Key_material; Report; Cache_entry ]

let kind_to_string = function
  | Vm_program -> "vm"
  | Native_program -> "native"
  | Trace -> "trace"
  | Key_material -> "key"
  | Report -> "report"
  | Cache_entry -> "cache"

let kind_of_string = function
  | "vm" -> Some Vm_program
  | "native" -> Some Native_program
  | "trace" -> Some Trace
  | "key" -> Some Key_material
  | "report" -> Some Report
  | "cache" -> Some Cache_entry
  | _ -> None

let kind_tag = function
  | Vm_program -> 'v'
  | Native_program -> 'n'
  | Trace -> 't'
  | Key_material -> 'k'
  | Report -> 'r'
  | Cache_entry -> 'c'

let kind_of_tag = function
  | 'v' -> Some Vm_program
  | 'n' -> Some Native_program
  | 't' -> Some Trace
  | 'k' -> Some Key_material
  | 'r' -> Some Report
  | 'c' -> Some Cache_entry
  | _ -> None

type entry = {
  kind : kind;
  key : string;
  label : string;
  blob : string;
  size : int;
  seq : int;
  created_at : int;
}

type op = Put of entry | Delete of { kind : kind; key : string; seq : int }

(* ---- codec: a tag byte, the kind's tag byte, then the fields in
   {!Util.Binio}'s codec ---- *)

let encode op =
  let open Util.Binio in
  let buf = Buffer.create 128 in
  (match op with
  | Put e ->
      Buffer.add_char buf 'P';
      Buffer.add_char buf (kind_tag e.kind);
      add_varint buf e.seq;
      add_str buf e.key;
      add_str buf e.label;
      add_str buf e.blob;
      add_varint buf e.size;
      add_varint buf e.created_at
  | Delete { kind; key; seq } ->
      Buffer.add_char buf 'D';
      Buffer.add_char buf (kind_tag kind);
      add_varint buf seq;
      add_str buf key);
  Buffer.contents buf

let decode s =
  let open Util.Binio in
  let r = reader s in
  let kind () =
    match kind_of_tag (Char.chr (byte r)) with Some k -> k | None -> raise (Malformed "bad kind tag")
  in
  match
    let op =
      match Char.chr (byte r) with
      | 'P' ->
          let kind = kind () in
          let seq = varint r in
          let key = str r in
          let label = str r in
          let blob = str r in
          let size = varint r in
          let created_at = varint r in
          Put { kind; key; label; blob; size; seq; created_at }
      | 'D' ->
          let kind = kind () in
          let seq = varint r in
          let key = str r in
          Delete { kind; key; seq }
      | _ -> raise (Malformed "bad op tag")
    in
    finish r;
    op
  with
  | op -> Some op
  | exception Malformed _ -> None
