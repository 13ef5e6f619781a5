(* Tests for the Feistel block cipher. *)

let test_roundtrip_default () =
  let c = Crypto.Feistel.create ~key:0xDEADBEEFL () in
  List.iter
    (fun v -> Alcotest.(check int) "decrypt . encrypt = id" v (Crypto.Feistel.decrypt c (Crypto.Feistel.encrypt c v)))
    [ 0; 1; 42; (1 lsl 61) - 1; 1 lsl 60; 123456789123456789 ]

let test_roundtrip_small_block () =
  let c = Crypto.Feistel.create ~block_bits:16 ~key:7L () in
  for v = 0 to 65535 do
    if Crypto.Feistel.decrypt c (Crypto.Feistel.encrypt c v) <> v then
      Alcotest.failf "roundtrip failed at %d" v
  done

let test_bijective_small_block () =
  let c = Crypto.Feistel.create ~block_bits:12 ~key:99L () in
  let seen = Array.make 4096 false in
  for v = 0 to 4095 do
    let e = Crypto.Feistel.encrypt c v in
    Alcotest.(check bool) "in range" true (e >= 0 && e < 4096);
    if seen.(e) then Alcotest.failf "collision at %d" v;
    seen.(e) <- true
  done

let test_key_sensitivity () =
  let c1 = Crypto.Feistel.create ~key:1L () and c2 = Crypto.Feistel.create ~key:2L () in
  let differs = ref 0 in
  for v = 0 to 99 do
    if Crypto.Feistel.encrypt c1 v <> Crypto.Feistel.encrypt c2 v then incr differs
  done;
  Alcotest.(check bool) "different keys give different ciphertexts" true (!differs > 90)

let test_diffusion () =
  (* Flipping one plaintext bit should flip many ciphertext bits on average. *)
  let c = Crypto.Feistel.create ~key:123L () in
  let total = ref 0 in
  let samples = 200 in
  let rng = Util.Prng.create 17L in
  for _ = 1 to samples do
    let v = Util.Prng.bits rng 62 in
    let bit = Util.Prng.int rng 62 in
    let d = Crypto.Feistel.encrypt c v lxor Crypto.Feistel.encrypt c (v lxor (1 lsl bit)) in
    let rec popcount x = if x = 0 then 0 else (x land 1) + popcount (x lsr 1) in
    total := !total + popcount d
  done;
  let avg = float_of_int !total /. float_of_int samples in
  Alcotest.(check bool) (Printf.sprintf "avalanche avg %.1f bits" avg) true (avg > 20.0 && avg < 42.0)

let test_passphrase_deterministic () =
  let c1 = Crypto.Feistel.of_passphrase "secret input" in
  let c2 = Crypto.Feistel.of_passphrase "secret input" in
  let c3 = Crypto.Feistel.of_passphrase "secret inpux" in
  Alcotest.(check int) "same passphrase" (Crypto.Feistel.encrypt c1 5) (Crypto.Feistel.encrypt c2 5);
  Alcotest.(check bool) "different passphrase" true
    (Crypto.Feistel.encrypt c1 5 <> Crypto.Feistel.encrypt c3 5)

let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true

let test_invalid_params () =
  Alcotest.(check bool) "odd block" true (expect_invalid (fun () -> Crypto.Feistel.create ~block_bits:13 ~key:1L ()));
  Alcotest.(check bool) "too wide" true (expect_invalid (fun () -> Crypto.Feistel.create ~block_bits:64 ~key:1L ()));
  let c = Crypto.Feistel.create ~block_bits:16 ~key:1L () in
  Alcotest.(check bool) "value out of range" true (expect_invalid (fun () -> Crypto.Feistel.encrypt c 65536));
  Alcotest.(check bool) "negative value" true (expect_invalid (fun () -> Crypto.Feistel.encrypt c (-1)))

(* Known answers: (block_bits, rounds, key, plaintext, encrypt, decrypt of
   the plaintext), computed when the round function still whitened its key
   itself.  Marks already embedded (in a registry or in saved programs) stay
   recognizable only while these hold; a round-trip test would miss a change
   made to both directions. *)
let known_answers =
  [
    (62, 32, 0xDEADBEEFL, 0, 226739289329987341, 299170964551058154);
    (62, 32, 0xDEADBEEFL, 1, 3882099076935775687, 1978539454527300525);
    (62, 32, 0xDEADBEEFL, 42, 1789875518151270753, 569517116793298520);
    (62, 32, 0xDEADBEEFL, 2305843009213693951, 977549197104948576, 2489205156092960116);
    (62, 32, 0xDEADBEEFL, 123456789123456789, 1672814960093034903, 4086624120716587219);
    (62, 32, 0xDEADBEEFL, 4611686018427387903, 1881135934283961379, 3237355064605000873);
    (62, 32, 0x5EEDL, 0, 1333720214867770941, 2444997038239074709);
    (62, 32, 0x5EEDL, 7, 2478653879928322032, 3901784045449876453);
    (62, 32, 0x5EEDL, 1099511627776, 3361083971862469831, 2419934823106072692);
    (62, 32, 0x5EEDL, 987654321987, 1519344668372959818, 3286714379221708080);
    (18, 32, 0x7L, 0, 109516, 85022);
    (18, 32, 0x7L, 1, 208894, 222414);
    (18, 32, 0x7L, 1000, 258919, 87312);
    (18, 32, 0x7L, 262143, 184279, 127558);
    (18, 32, 0x7L, 131072, 146780, 17190);
    (18, 32, 0x1234L, 5, 48716, 162302);
    (18, 32, 0x1234L, 77777, 183549, 177834);
    (18, 32, 0x1234L, 200000, 105114, 214753);
    (16, 32, 0x7L, 0, 5875, 45403);
    (16, 32, 0x7L, 1, 65324, 15017);
    (16, 32, 0x7L, 255, 32971, 21577);
    (16, 32, 0x7L, 65535, 43174, 38979);
    (16, 32, 0x7L, 40000, 40519, 39971);
    (16, 32, 0x63L, 3, 36406, 5487);
    (16, 32, 0x63L, 12345, 46563, 15188);
    (16, 32, 0x63L, 54321, 64094, 42159);
    (62, 12, 0xC0FFEEL, 0, 4435075176552745731, 1708451951244351775);
    (62, 12, 0xC0FFEEL, 1, 3901658112105873086, 427446726492546135);
    (62, 12, 0xC0FFEEL, 42, 1375779773600161806, 3424591530701893902);
    (62, 12, 0xC0FFEEL, 123456789123456789, 1832302421819654470, 4076571812913291610);
    (62, 12, 0xC0FFEEL, 4611686018427387903, 3686797459384688147, 4218246330653514939);
  ]

let test_known_answers () =
  List.iter
    (fun (block_bits, rounds, key, v, enc, dec) ->
      let c = Crypto.Feistel.create ~rounds ~block_bits ~key () in
      let what = Printf.sprintf "%d-bit, %d rounds, key %Lx, v=%d" block_bits rounds key v in
      Alcotest.(check int) ("encrypt " ^ what) enc (Crypto.Feistel.encrypt c v);
      Alcotest.(check int) ("decrypt " ^ what) dec (Crypto.Feistel.decrypt c v);
      Alcotest.(check int) ("decrypt . encrypt " ^ what) v (Crypto.Feistel.decrypt c enc))
    known_answers;
  (* the piece cipher under the default watermark key *)
  let c = Crypto.Feistel.of_passphrase "pathmark-default-key|piece-cipher" in
  List.iter
    (fun (v, enc, dec) ->
      Alcotest.(check int) "passphrase encrypt" enc (Crypto.Feistel.encrypt c v);
      Alcotest.(check int) "passphrase decrypt" dec (Crypto.Feistel.decrypt c v))
    [
      (0, 4327376505051208535, 2088119637667742862);
      (1, 384752088806381227, 1638976604559572659);
      (123456789, 3904106565940808605, 2860929186452530992);
    ]

let qcheck_roundtrip =
  QCheck.Test.make ~name:"encrypt/decrypt roundtrip on random values" ~count:1000
    QCheck.(pair (int_bound ((1 lsl 30) - 1)) (int_bound ((1 lsl 30) - 1)))
    (fun (hi, lo) ->
      let v = (hi lsl 30) lor lo in
      let c = Crypto.Feistel.create ~key:0x5EEDL () in
      Crypto.Feistel.decrypt c (Crypto.Feistel.encrypt c v) = v)

(* decrypt2 is two decrypts: same plaintexts lane for lane, and the same
   range check on either lane. *)
let qcheck_decrypt2 =
  QCheck.Test.make ~name:"decrypt2 agrees lane for lane with decrypt" ~count:1000
    QCheck.(quad int64 (int_range 2 31) (int_range 2 40) (pair int int))
    (fun (key, half, rounds, (a, b)) ->
      let block_bits = 2 * half in
      let c = Crypto.Feistel.create ~rounds ~block_bits ~key () in
      let mask = (1 lsl block_bits) - 1 in
      let a = a land mask and b = b land mask in
      let out = Array.make 2 (-1) in
      Crypto.Feistel.decrypt2 c a b out;
      let agree = out.(0) = Crypto.Feistel.decrypt c a && out.(1) = Crypto.Feistel.decrypt c b in
      (* an out-of-range lane: a negative value, or one bit above the block *)
      let bad = if block_bits = 62 then -1 - a else a lor (1 lsl block_bits) in
      agree
      && expect_invalid (fun () -> Crypto.Feistel.decrypt c bad)
      && expect_invalid (fun () -> Crypto.Feistel.decrypt2 c bad b out)
      && expect_invalid (fun () -> Crypto.Feistel.decrypt2 c a bad out))

let suite =
  [
    ("roundtrip default block", `Quick, test_roundtrip_default);
    ("roundtrip 16-bit block exhaustive", `Quick, test_roundtrip_small_block);
    ("bijective on 12-bit block", `Quick, test_bijective_small_block);
    ("key sensitivity", `Quick, test_key_sensitivity);
    ("diffusion/avalanche", `Quick, test_diffusion);
    ("passphrase derivation", `Quick, test_passphrase_deterministic);
    ("invalid parameters", `Quick, test_invalid_params);
    ("known-answer vectors", `Quick, test_known_answers);
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_decrypt2;
  ]
