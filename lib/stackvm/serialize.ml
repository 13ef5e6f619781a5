open Util.Binio

let opcode : Instr.t -> int = function
  | Const _ -> 0
  | Load _ -> 1
  | Store _ -> 2
  | Get_global _ -> 3
  | Set_global _ -> 4
  | Binop Add -> 5
  | Binop Sub -> 6
  | Binop Mul -> 7
  | Binop Div -> 8
  | Binop Rem -> 9
  | Binop And -> 10
  | Binop Or -> 11
  | Binop Xor -> 12
  | Binop Shl -> 13
  | Binop Shr -> 14
  | Neg -> 15
  | Not -> 16
  | Cmp Eq -> 17
  | Cmp Ne -> 18
  | Cmp Lt -> 19
  | Cmp Le -> 20
  | Cmp Gt -> 21
  | Cmp Ge -> 22
  | Dup -> 23
  | Pop -> 24
  | Swap -> 25
  | New_array -> 26
  | Array_load -> 27
  | Array_store -> 28
  | Array_len -> 29
  | Jump _ -> 30
  | If { sense = true; _ } -> 31
  | If { sense = false; _ } -> 32
  | Call _ -> 33
  | Ret -> 34
  | Print -> 35
  | Read -> 36
  | Nop -> 37

let encode_instr buf (i : Instr.t) =
  Buffer.add_char buf (Char.chr (opcode i));
  match i with
  | Const n -> add_zigzag buf n
  | Load n | Store n | Get_global n | Set_global n -> add_varint buf n
  | Jump t | If { target = t; _ } -> add_varint buf t
  | Call name -> add_str buf name
  | _ -> ()

let decode_instr r : Instr.t =
  match byte r with
  | 0 -> Const (zigzag r)
  | 1 -> Load (varint r)
  | 2 -> Store (varint r)
  | 3 -> Get_global (varint r)
  | 4 -> Set_global (varint r)
  | 5 -> Binop Add
  | 6 -> Binop Sub
  | 7 -> Binop Mul
  | 8 -> Binop Div
  | 9 -> Binop Rem
  | 10 -> Binop And
  | 11 -> Binop Or
  | 12 -> Binop Xor
  | 13 -> Binop Shl
  | 14 -> Binop Shr
  | 15 -> Neg
  | 16 -> Not
  | 17 -> Cmp Eq
  | 18 -> Cmp Ne
  | 19 -> Cmp Lt
  | 20 -> Cmp Le
  | 21 -> Cmp Gt
  | 22 -> Cmp Ge
  | 23 -> Dup
  | 24 -> Pop
  | 25 -> Swap
  | 26 -> New_array
  | 27 -> Array_load
  | 28 -> Array_store
  | 29 -> Array_len
  | 30 -> Jump (varint r)
  | 31 -> If { sense = true; target = varint r }
  | 32 -> If { sense = false; target = varint r }
  | 33 -> Call (str r)
  | 34 -> Ret
  | 35 -> Print
  | 36 -> Read
  | 37 -> Nop
  | op -> raise (Malformed (Printf.sprintf "bad opcode %d" op))

let encode (p : Program.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "SVM1";
  add_varint buf p.nglobals;
  add_varint buf (Array.length p.funcs);
  Array.iter
    (fun (f : Program.func) ->
      add_str buf f.name;
      add_varint buf f.nargs;
      add_varint buf f.nlocals;
      add_varint buf (Array.length f.code);
      Array.iter (encode_instr buf) f.code)
    p.funcs;
  add_str buf p.main;
  Buffer.contents buf

let decode data =
  let r = reader data in
  try
    magic r "SVM1";
    let nglobals = varint r in
    let nfuncs = varint r in
    (* Bound declared counts by the bytes that remain: a corrupt count must
       fail as malformed input, not as an attempted multi-gigabyte
       allocation.  A function costs at least 4 bytes, an instruction at
       least 1. *)
    let remaining () = String.length data - pos r in
    if nfuncs > remaining () / 4 then raise (Malformed "function count exceeds input");
    (* Decode sequentially: List.init/Array.init do not guarantee order. *)
    let funcs = ref [] in
    for _ = 1 to nfuncs do
      let name = str r in
      let nargs = varint r in
      let nlocals = varint r in
      let ncode = varint r in
      if ncode > remaining () then raise (Malformed "code length exceeds input");
      let code = Array.make ncode Instr.Nop in
      for i = 0 to ncode - 1 do
        code.(i) <- decode_instr r
      done;
      funcs := { Program.name; nargs; nlocals; code } :: !funcs
    done;
    let funcs = List.rev !funcs in
    let main = str r in
    { Program.funcs = Array.of_list funcs; nglobals; main }
  with Malformed msg -> failwith ("Serialize.decode: " ^ msg)

let decode_opt data = match decode data with p -> Some p | exception Failure _ -> None

let size_in_bytes p = String.length (encode p)
