type t = { text : string; data : string; entry : int; symbols : (string * int) list }

let make ?(symbols = []) ?(entry = Layout.text_base) ~text ~data () =
  if String.length text > Layout.text_capacity then invalid_arg "Binary.make: text too large";
  if String.length data > Layout.data_capacity then invalid_arg "Binary.make: data too large";
  { text; data; entry; symbols }

let symbol t name =
  match List.assoc_opt name t.symbols with Some a -> a | None -> raise Not_found

let text_end t = Layout.text_base + String.length t.text

let size t = String.length t.text + String.length t.data

(* container format: magic, entry varint, text and data strings, then the
   symbol list of (name, address) pairs — all in {!Util.Binio}'s codec *)
let encode t =
  let open Util.Binio in
  let buf = Buffer.create (size t + 64) in
  Buffer.add_string buf "NBIN";
  add_varint buf t.entry;
  add_str buf t.text;
  add_str buf t.data;
  add_list buf
    (fun buf (name, addr) ->
      add_str buf name;
      add_varint buf addr)
    t.symbols;
  Buffer.contents buf

let decode s =
  let open Util.Binio in
  let r = reader s in
  try
    magic r "NBIN";
    let entry = varint r in
    let text = str r in
    let data = str r in
    let symbols =
      list r (fun r ->
          let name = str r in
          (name, varint r))
    in
    make ~symbols ~entry ~text ~data ()
  with
  (* [make] refuses a section past its capacity with [Invalid_argument] *)
  | Malformed msg | Invalid_argument msg -> failwith ("Binary.decode: " ^ msg)
