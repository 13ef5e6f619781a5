(* Tests for the native machine: encode/decode, assembler, machine
   semantics, disassembler, rewriter relocation. *)

open Nativesim

let run ?fuel ?(input = []) ?entry prog = Machine.run ?fuel (Asm.assemble ?entry prog) ~input

let text text = { Asm.text; data = [] }

let expect_halted ?(expect = []) result =
  (match result.Machine.outcome with
  | Machine.Halted -> ()
  | Machine.Trapped { reason; addr } -> Alcotest.failf "trapped at 0x%x: %s" addr reason
  | Machine.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check (list int)) "outputs" expect result.Machine.outputs

let test_mov_out () =
  expect_halted ~expect:[ 42 ]
    (run (text Asm.[ I (Insn.Mov_imm (0, 42)); I (Insn.Out 0); I Insn.Halt ]))

let test_alu () =
  let check op a b expected =
    expect_halted ~expect:[ expected ]
      (run
         (text
            Asm.[
              I (Insn.Mov_imm (0, a));
              I (Insn.Mov_imm (1, b));
              I (Insn.Alu (op, 0, 1));
              I (Insn.Out 0);
              I Insn.Halt;
            ]))
  in
  check Insn.Add 30 12 42;
  check Insn.Sub 30 12 18;
  check Insn.Mul 6 7 42;
  check Insn.Div 45 6 7;
  check Insn.Rem 45 6 3;
  check Insn.And 12 10 8;
  check Insn.Or 12 10 14;
  check Insn.Xor 12 10 6;
  check Insn.Shl 3 4 48;
  check Insn.Shr 16 2 4;
  check Insn.Sar (-16) 2 (-4)

let test_alu_imm_negative () =
  expect_halted ~expect:[ -5 ]
    (run (text Asm.[ I (Insn.Mov_imm (0, 5)); I (Insn.Alu_imm (Insn.Sub, 0, 10)); I (Insn.Out 0); I Insn.Halt ]))

let test_branching () =
  (* count down from 5, output number of iterations *)
  let prog =
    text
      Asm.[
        I (Insn.Mov_imm (0, 5));
        I (Insn.Mov_imm (1, 0));
        L "loop";
        I (Insn.Cmp_imm (0, 0));
        Jcc (Insn.Eq, Lbl "done");
        I (Insn.Alu_imm (Insn.Sub, 0, 1));
        I (Insn.Alu_imm (Insn.Add, 1, 1));
        Jmp (Lbl "loop");
        L "done";
        I (Insn.Out 1);
        I Insn.Halt;
      ]
  in
  expect_halted ~expect:[ 5 ] (run prog)

let test_all_conditions () =
  let check cc a b taken =
    let prog =
      text
        Asm.[
          I (Insn.Mov_imm (0, a));
          I (Insn.Mov_imm (1, b));
          I (Insn.Cmp (0, 1));
          Jcc (cc, Lbl "taken");
          I (Insn.Mov_imm (2, 0));
          Jmp (Lbl "out");
          L "taken";
          I (Insn.Mov_imm (2, 1));
          L "out";
          I (Insn.Out 2);
          I Insn.Halt;
        ]
    in
    expect_halted ~expect:[ (if taken then 1 else 0) ] (run prog)
  in
  check Insn.Eq 3 3 true;
  check Insn.Eq 3 4 false;
  check Insn.Ne 3 4 true;
  check Insn.Lt (-1) 0 true;
  check Insn.Ge 0 0 true;
  check Insn.Gt 1 0 true;
  check Insn.Gt 0 0 false;
  check Insn.Le 0 0 true

let test_call_ret_stack () =
  (* a function that doubles r0 *)
  let prog =
    text
      Asm.[
        I (Insn.Mov_imm (0, 21));
        Call (Lbl "double");
        I (Insn.Out 0);
        I Insn.Halt;
        L "double";
        I (Insn.Alu (Insn.Add, 0, 0));
        I Insn.Ret;
      ]
  in
  expect_halted ~expect:[ 42 ] (run prog)

let test_push_pop_flags () =
  let prog =
    text
      Asm.[
        I (Insn.Mov_imm (0, 1));
        I (Insn.Mov_imm (1, 2));
        I (Insn.Cmp (0, 1)); (* lt set *)
        I Insn.Pushf;
        I (Insn.Cmp (1, 0)); (* lt cleared *)
        I Insn.Popf;
        Jcc (Insn.Lt, Lbl "good");
        I (Insn.Mov_imm (2, 0));
        Jmp (Lbl "out");
        L "good";
        I (Insn.Mov_imm (2, 1));
        L "out";
        I (Insn.Out 2);
        I Insn.Halt;
      ]
  in
  expect_halted ~expect:[ 1 ] (run prog)

let test_memory_and_data () =
  let prog =
    {
      Asm.text =
        Asm.[
          Load_lbl (0, Lbl "cell");
          I (Insn.Alu_imm (Insn.Add, 0, 1));
          Store_lbl (Lbl "cell", 0);
          Load_lbl (1, Lbl "cell");
          I (Insn.Out 1);
          I Insn.Halt;
        ];
      data = Asm.[ Dlabel "cell"; Dword 99 ];
    }
  in
  expect_halted ~expect:[ 100 ] (run prog)

let test_indexed_load () =
  let prog =
    {
      Asm.text =
        Asm.[
          Mov_lbl (0, Lbl "table");
          I (Insn.Load (1, 0, 16)) (* third word *);
          I (Insn.Out 1);
          I Insn.Halt;
        ];
      data = Asm.[ Dlabel "table"; Dword 10; Dword 20; Dword 30 ];
    }
  in
  expect_halted ~expect:[ 30 ] (run prog)

let test_indirect_jump () =
  let prog =
    {
      Asm.text =
        Asm.[
          Mov_lbl (0, Lbl "target");
          Store_lbl (Lbl "cell", 0);
          Jmp_ind (Lbl "cell");
          I (Insn.Mov_imm (1, 0));
          I (Insn.Out 1);
          I Insn.Halt;
          L "target";
          I (Insn.Mov_imm (1, 7));
          I (Insn.Out 1);
          I Insn.Halt;
        ];
      data = Asm.[ Dlabel "cell"; Dword 0 ];
    }
  in
  expect_halted ~expect:[ 7 ] (run prog)

let test_in_out () =
  let prog = text Asm.[ I (Insn.In 0); I (Insn.In 1); I (Insn.Alu (Insn.Add, 0, 1)); I (Insn.Out 0); I Insn.Halt ] in
  expect_halted ~expect:[ 30 ] (run ~input:[ 10; 20 ] prog)

let test_traps () =
  let trap prog input =
    match (run ~input prog).Machine.outcome with
    | Machine.Trapped { reason; _ } -> reason
    | _ -> Alcotest.fail "expected trap"
  in
  let div0 =
    text Asm.[ I (Insn.Mov_imm (0, 1)); I (Insn.Mov_imm (1, 0)); I (Insn.Alu (Insn.Div, 0, 1)); I Insn.Halt ]
  in
  Alcotest.(check string) "div0" "division by zero" (trap div0 []);
  let wild = text Asm.[ Jmp (Abs 0x500000) ] in
  Alcotest.(check bool) "wild jump traps" true
    (String.length (trap wild []) > 0);
  let no_input = text Asm.[ I (Insn.In 0); I Insn.Halt ] in
  Alcotest.(check string) "input exhausted" "input exhausted" (trap no_input [])

let test_fuel () =
  let spin = text Asm.[ L "x"; Jmp (Lbl "x") ] in
  match (run ~fuel:1000 spin).Machine.outcome with
  | Machine.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected out of fuel"

let test_encode_decode_roundtrip () =
  let samples =
    Insn.[
      Halt; Nop; Ret; Pushf; Popf;
      Mov_imm (3, 123456789012345);
      Mov_imm (0, -42);
      Mov (1, 2);
      Load (0, 8, -16);
      Store (8, 32, 5);
      Load_abs (2, 0x100008);
      Store_abs (0x100010, 7);
      Alu (Add, 0, 1); Alu (Sar, 7, 6);
      Alu_imm (Xor, 4, 0x7FFF);
      Cmp (0, 1); Cmp_imm (5, -7);
      Jmp 0x2000; Jcc (Le, 0x1234); Jmp_ind 0x100000; Jmp_reg 3;
      Call 0x1500;
      Push 0; Pop 8; Out 1; In 2;
    ]
  in
  List.iter
    (fun insn ->
      let at = 0x1000 in
      let bytes = Insn.encode insn ~at in
      Alcotest.(check int) (Insn.to_string insn ^ " size") (Insn.size insn) (String.length bytes);
      let decoded, sz = Insn.decode (fun a -> Char.code bytes.[a - at]) ~at in
      Alcotest.(check int) "decoded size" (String.length bytes) sz;
      Alcotest.(check string) "roundtrip" (Insn.to_string insn) (Insn.to_string decoded))
    samples

let test_disassemble_whole_program () =
  let prog =
    text
      Asm.[
        I (Insn.Mov_imm (0, 5)); L "l"; I (Insn.Cmp_imm (0, 0)); Jcc (Insn.Eq, Lbl "d");
        I (Insn.Alu_imm (Insn.Sub, 0, 1)); Jmp (Lbl "l"); L "d"; I Insn.Halt;
      ]
  in
  let bin = Asm.assemble prog in
  let listing = Disasm.disassemble bin in
  Alcotest.(check int) "instruction count" 6 (List.length listing);
  (* addresses are consecutive by size *)
  let rec check = function
    | (a1, i1) :: ((a2, _) :: _ as rest) ->
        Alcotest.(check int) "addr chain" (a1 + Insn.size i1) a2;
        check rest
    | _ -> ()
  in
  check listing

let counting_binary =
  Asm.assemble
    (text
       Asm.[
         I (Insn.Mov_imm (0, 3));
         I (Insn.Mov_imm (1, 0));
         L "loop";
         I (Insn.Cmp_imm (0, 0));
         Jcc (Insn.Eq, Lbl "done");
         I (Insn.Alu_imm (Insn.Sub, 0, 1));
         I (Insn.Alu_imm (Insn.Add, 1, 7));
         Jmp (Lbl "loop");
         L "done";
         I (Insn.Out 1);
         I Insn.Halt;
       ])

let test_rewriter_nop_insertion_relocates () =
  let rng = Util.Prng.create 5L in
  let rewritten =
    Rewriter.transform counting_binary ~f:(fun _ insn ->
        if Util.Prng.bool rng then [ Insn.Nop; insn ] else [ insn ])
  in
  let r0 = Machine.run counting_binary ~input:[] in
  let r1 = Machine.run rewritten ~input:[] in
  Alcotest.(check bool) "behaviour preserved" true (Machine.outputs_equal r0 r1);
  Alcotest.(check bool) "text grew" true
    (String.length rewritten.Binary.text > String.length counting_binary.Binary.text)

let test_rewriter_preserves_symbols () =
  let rewritten = Rewriter.transform counting_binary ~f:(fun _ insn -> [ Insn.Nop; insn ]) in
  (* the "loop" symbol must still point at the Cmp instruction (after its Nop) *)
  let loop_addr = Binary.symbol rewritten "loop" in
  Alcotest.(check bool) "symbol relocated" true (loop_addr > Binary.symbol counting_binary "loop")

let test_patch_same_size () =
  (* patch the call in a call/halt program into a jmp: 5 bytes each *)
  let prog =
    text Asm.[ Call (Lbl "f"); I Insn.Halt; L "f"; I (Insn.Mov_imm (0, 9)); I (Insn.Out 0); I Insn.Halt ]
  in
  let bin = Asm.assemble prog in
  let f_addr = Binary.symbol bin "f" in
  let patched = Rewriter.patch_insn bin ~at:Layout.text_base (Insn.Jmp f_addr) in
  (* now the program jumps to f and halts there without returning *)
  expect_halted ~expect:[ 9 ] (Machine.run patched ~input:[]);
  Alcotest.(check int) "same total size" (Binary.size bin) (Binary.size patched)

let test_append_text () =
  let bin = counting_binary in
  let appended, start = Rewriter.append_text bin [ Insn.Nop; Insn.Halt ] in
  Alcotest.(check int) "start is old end" (Binary.text_end bin) start;
  let r0 = Machine.run bin ~input:[] and r1 = Machine.run appended ~input:[] in
  Alcotest.(check bool) "unreachable append preserves behaviour" true (Machine.outputs_equal r0 r1)

let test_profile_counts () =
  let p = Profile.run counting_binary ~input:[] in
  (* the loop body executes 3 times *)
  let loop_addr = Binary.symbol counting_binary "loop" in
  Alcotest.(check int) "loop head count" 4 (Profile.count p loop_addr);
  let cold = Profile.cold_instructions p counting_binary in
  Alcotest.(check bool) "some cold instructions" true (List.length cold >= 3)

let test_single_stepping () =
  let seen = ref [] in
  let observer st ~addr ~insn =
    ignore (Machine.reg st 0);
    seen := (addr, Insn.to_string insn) :: !seen
  in
  let r = Machine.run ~observer counting_binary ~input:[] in
  Alcotest.(check int) "one observation per step" r.Machine.steps (List.length !seen)

let qcheck_encode_roundtrip =
  QCheck.Test.make ~name:"random instruction encode/decode" ~count:500
    QCheck.(triple (int_bound 8) (int_bound 8) (int_range (-1000000) 1000000))
    (fun (r1, r2, imm) ->
      let candidates =
        Insn.[
          Mov_imm (r1, imm * 1000);
          Mov (r1, r2);
          Load (r1, r2, imm mod 0x10000);
          Store (r2, imm mod 0x10000, r1);
          Alu_imm (Add, r1, imm);
          Cmp_imm (r1, imm);
          Jcc (Ne, 0x1000 + abs imm mod 0x1000);
        ]
      in
      List.for_all
        (fun insn ->
          let at = 0x1000 in
          let bytes = Insn.encode insn ~at in
          let decoded, _ = Insn.decode (fun a -> Char.code bytes.[a - at]) ~at in
          Insn.to_string decoded = Insn.to_string insn)
        candidates)

let suite =
  [
    ("mov/out", `Quick, test_mov_out);
    ("alu ops", `Quick, test_alu);
    ("alu imm negative", `Quick, test_alu_imm_negative);
    ("branching loop", `Quick, test_branching);
    ("all conditions", `Quick, test_all_conditions);
    ("call/ret", `Quick, test_call_ret_stack);
    ("pushf/popf", `Quick, test_push_pop_flags);
    ("memory and data section", `Quick, test_memory_and_data);
    ("indexed load", `Quick, test_indexed_load);
    ("indirect jump through data", `Quick, test_indirect_jump);
    ("in/out", `Quick, test_in_out);
    ("traps", `Quick, test_traps);
    ("fuel", `Quick, test_fuel);
    ("encode/decode roundtrip", `Quick, test_encode_decode_roundtrip);
    ("disassemble program", `Quick, test_disassemble_whole_program);
    ("rewriter relocates", `Quick, test_rewriter_nop_insertion_relocates);
    ("rewriter preserves symbols", `Quick, test_rewriter_preserves_symbols);
    ("patch call->jmp same size", `Quick, test_patch_same_size);
    ("append text", `Quick, test_append_text);
    ("profile counts", `Quick, test_profile_counts);
    ("single stepping", `Quick, test_single_stepping);
    QCheck_alcotest.to_alcotest qcheck_encode_roundtrip;
  ]

(* ---- binary container format ---- *)

let test_binary_container_roundtrip () =
  let bin = counting_binary in
  let bin' = Binary.decode (Binary.encode bin) in
  Alcotest.(check string) "text" bin.Binary.text bin'.Binary.text;
  Alcotest.(check string) "data" bin.Binary.data bin'.Binary.data;
  Alcotest.(check int) "entry" bin.Binary.entry bin'.Binary.entry;
  Alcotest.(check bool) "symbols" true
    (List.sort compare bin.Binary.symbols = List.sort compare bin'.Binary.symbols)

let test_binary_container_rejects_garbage () =
  List.iter
    (fun s ->
      match Binary.decode s with
      | _ -> Alcotest.failf "accepted garbage %S" s
      | exception Failure _ -> ())
    [ ""; "NBI"; "XXXX\x00\x00\x00"; "NBIN" ]

(* ---- binary lifting (to_program) ---- *)

let test_lift_relink_identity_behaviour () =
  let bin = counting_binary in
  let relinked = Nativesim.Asm.assemble (Rewriter.to_program bin) in
  let r0 = Machine.run bin ~input:[] and r1 = Machine.run relinked ~input:[] in
  Alcotest.(check bool) "behaviour preserved by lift+relink" true (Machine.outputs_equal r0 r1)

let test_lift_preserves_instruction_count () =
  let bin = counting_binary in
  let lifted = Rewriter.to_program bin in
  let insns = List.filter (fun i -> Nativesim.Asm.item_size i > 0) lifted.Nativesim.Asm.text in
  Alcotest.(check int) "same instruction count" (List.length (Disasm.disassemble bin)) (List.length insns)

let container_suite =
  [
    ("binary container roundtrip", `Quick, test_binary_container_roundtrip);
    ("binary container rejects garbage", `Quick, test_binary_container_rejects_garbage);
    ("lift+relink preserves behaviour", `Quick, test_lift_relink_identity_behaviour);
    ("lift preserves instruction count", `Quick, test_lift_preserves_instruction_count);
  ]

let suite = suite @ container_suite

(* ---- NBIN: overflow regression and known answer ---- *)

let test_binary_rejects_overflowing_varint () =
  match Binary.decode ("NBIN\x00" ^ Edge_bytes.overflowing_varint ^ "xxxxxxxx") with
  | _ -> Alcotest.fail "negative text length decoded"
  | exception Failure _ -> ()

(* MD5 computed before the formats shared one codec *)
let test_binary_known_answer () =
  let w =
    List.find (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name = "caffeine-sieve")
      Workloads.Caffeine.kernels
  in
  let bin = Workloads.Workload.native_binary w in
  (* the compiler numbers labels from a process-wide counter, so symbol
     names and their order depend on what the process compiled before:
     pin the bytes with the symbols renamed in address order *)
  let symbols = List.mapi (fun i a -> (Printf.sprintf "L%d" i, a)) (List.sort compare (List.map snd bin.symbols)) in
  let bin = { bin with symbols } in
  let bytes = Binary.encode bin in
  Alcotest.(check string) "NBIN of caffeine-sieve" "86d706c4cc8d3ef04179adc0108c8c33" (Edge_bytes.md5 bytes);
  Alcotest.(check bool) "round-trips" true (Binary.decode bytes = bin)

let suite =
  suite
  @ [
      ("binary decode rejects overflowing varint", `Quick, test_binary_rejects_overflowing_varint);
      ("NBIN known-answer bytes", `Quick, test_binary_known_answer);
    ]
