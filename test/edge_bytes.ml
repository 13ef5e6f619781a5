(* Shared test inputs for the byte formats.

   [gen] draws byte strings aimed at the edges of the shared varint codec
   ({!Util.Binio}): one of a format's headers, then a mix of runs of
   continuation bytes (0x80-0xFF), 9- and 10-byte varints whose last byte
   sits on the 0x3F/0x40/0x7F boundaries, one-byte varints and short
   arbitrary tails.  Uniform random strings almost never hold a 9-byte
   continuation run, so totality properties fed only those miss the
   overflowing and negative-valued varints. *)

let gen prefixes =
  let open QCheck.Gen in
  let any = map Char.chr (int_bound 255) in
  let continuation = map (fun b -> Char.chr (0x80 lor b)) (int_bound 0x7F) in
  let last = oneof [ oneofl [ '\x00'; '\x01'; '\x3f'; '\x40'; '\x7f' ]; map Char.chr (int_bound 0x7F) ] in
  let long_varint n = map2 (fun body b -> body ^ String.make 1 b) (string_size ~gen:continuation (return (n - 1))) last in
  let piece =
    frequency
      [
        (3, long_varint 9);
        (2, long_varint 10);
        (2, string_size ~gen:continuation (int_range 1 12));
        (3, map (String.make 1) (map Char.chr (int_bound 0x7F)));
        (2, string_size ~gen:any (int_bound 8));
      ]
  in
  map2
    (fun prefix pieces -> prefix ^ String.concat "" pieces)
    (frequency [ (9, oneofl prefixes); (1, return "") ])
    (list_size (int_range 1 6) piece)

let arb prefixes = QCheck.make ~print:String.escaped (gen prefixes)

(* each magic followed by each of its one-byte tags *)
let tagged magic tags = List.map (fun t -> magic ^ String.make 1 t) tags

(* 8 continuation bytes then 0x7F: nine 7-bit groups whose value sets the
   sign bit of a 63-bit int — -1 to a decoder that does not check *)
let overflowing_varint = String.make 8 '\xff' ^ "\x7f"

(* an SVM1 program whose one function name claims that length *)
let svm1_negative_name = "SVM1\x00\x01" ^ overflowing_varint ^ "aaaaaaaa"

let md5 s = Digest.to_hex (Digest.string s)
