exception Malformed of string

(* ---- writing ---- *)

(* [v] as an unsigned 63-bit pattern: [lsr] shifts in zeros, so a zigzag
   value with the top bit set still ends after 9 bytes *)
let rec add_unsigned buf v =
  if v lsr 7 = 0 then Buffer.add_char buf (Char.unsafe_chr v)
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (v land 0x7F)));
    add_unsigned buf (v lsr 7)
  end

let add_varint buf v =
  if v < 0 then invalid_arg "Binio.add_varint: negative";
  add_unsigned buf v

let add_zigzag buf v = add_unsigned buf ((v lsl 1) lxor (v asr 62))

let add_str buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let add_opt buf add = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      add buf v

let add_list buf add xs =
  add_varint buf (List.length xs);
  List.iter (add buf) xs

(* ---- reading ---- *)

type reader = { s : string; mutable pos : int }

let reader s = { s; pos = 0 }
let pos r = r.pos

let byte r =
  if r.pos >= String.length r.s then raise (Malformed "truncated");
  let b = Char.code (String.unsafe_get r.s r.pos) in
  r.pos <- r.pos + 1;
  b

(* Nine 7-bit groups hold 63 bits.  The ninth byte must end the varint;
   [top] is the largest value it may carry: 0x3F keeps an unsigned value
   off the sign bit, 0x7F lets a zigzag pattern use all 63 bits. *)
let read_groups r ~top =
  let rec go shift acc =
    let b = byte r in
    if shift = 56 && b > top then raise (Malformed "varint overflow");
    let acc = acc lor ((b land 0x7F) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(* one-byte values (most lengths, counts and trace fields) skip the loop *)
let varint r =
  if r.pos < String.length r.s && Char.code (String.unsafe_get r.s r.pos) < 0x80 then byte r
  else read_groups r ~top:0x3F

let zigzag r =
  let z = read_groups r ~top:0x7F in
  (z lsr 1) lxor -(z land 1)

(* a length or count: [varint] never yields a negative, so only the bytes
   that remain bound it *)
let count r what =
  let n = varint r in
  if n > String.length r.s - r.pos then raise (Malformed (what ^ " exceeds input"));
  n

let str r =
  let n = count r "string length" in
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n;
  v

let tag r what = match byte r with 0 -> false | 1 -> true | _ -> raise (Malformed ("bad " ^ what ^ " tag"))
let bool r = tag r "boolean"
let opt r read = if tag r "option" then Some (read r) else None

let list r read =
  let rec go acc k = if k = 0 then List.rev acc else go (read r :: acc) (k - 1) in
  go [] (count r "list count")

let magic r m =
  let n = String.length m in
  if n > String.length r.s - r.pos || String.sub r.s r.pos n <> m then
    raise (Malformed (Printf.sprintf "bad magic (expected %s)" m));
  r.pos <- r.pos + n

let finish r = if r.pos <> String.length r.s then raise (Malformed "trailing bytes")
