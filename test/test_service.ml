(* Tests for the service layer: wire codec totality and round-trips, and a
   real client/server exchange over a Unix-domain socket — embed on the
   server, recognize the stored program from a separate client. *)

open Stackvm
module Proto = Service.Proto
module Wire = Service.Wire

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "pathmark-service" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- wire codec ---- *)

let sample_info = { Proto.kind = Store.Artifact.Vm_program; key = "abc"; label = "fp:9"; size = 7; seq = 3 }

let sample_requests =
  [
    Proto.Put_artifact { kind = Store.Artifact.Trace; key = "k\x00\xff"; label = ""; payload = "p\nq" };
    Proto.Get_artifact { kind = Store.Artifact.Report; key = "deadbeef" };
    Proto.Embed
      {
        scheme = "jwm";
        program = "\x01\x02binary";
        key = "secret";
        bits = 64;
        pieces = 12;
        fingerprint = Bignum.of_string "123456789123456789";
        input = [ 50; -3; 0 ];
        seed = 42L;
      };
    Proto.Recognize { scheme = "gwm"; source = `Bytes "prog"; key = "secret"; bits = 64; input = [] };
    Proto.Recognize { scheme = "jwm+gwm"; source = `Stored "cafe"; key = "k"; bits = 128; input = [ 1 ] };
    Proto.Stats;
    Proto.List_artifacts;
    Proto.Ping;
    Proto.Journal_fetch { from_ = 6; max_bytes = 65536 };
    Proto.Blob_fetch { digest = "00c0ffee" };
    Proto.Promote;
    Proto.Shutdown;
  ]

let sample_responses =
  [
    Proto.Stored sample_info;
    Proto.Artifact { info = sample_info; payload = "bytes\x00here" };
    Proto.Embedded { digest = "cafe"; label = "fp:5"; bytes_before = 100; bytes_after = 150 };
    Proto.Recognized
      { value = Some (Bignum.of_string "987654321"); confidence = 0.75; registered = Some sample_info };
    Proto.Recognized { value = None; confidence = 0.0; registered = None };
    Proto.Stats_reply
      { entries = 2; journal_bytes = 300; payload_bytes = 1000; puts = 4; gets = 1; requests = 9; errors = 1 };
    Proto.Listing [ sample_info; { sample_info with Proto.kind = Store.Artifact.Report; seq = 4 } ];
    Proto.Pong { role = "standby"; entries = 12; journal_bytes = 4096; state_digest = "ab" };
    Proto.Journal_data { from_ = 6; total = 900; data = "raw\x00frame bytes" };
    Proto.Blob_data { digest = "00c0ffee"; payload = Some "blob\xffbody" };
    Proto.Blob_data { digest = "00c0ffee"; payload = None };
    Proto.Promoted;
    Proto.Overloaded { inflight = 64; limit = 64 };
    Proto.Shutting_down;
    Proto.Error { code = "not-found"; message = "no such artifact" };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Wire.decode_request (Wire.encode_request req) with
      | Ok req' ->
          Alcotest.(check string) "re-encodes identically" (Wire.encode_request req)
            (Wire.encode_request req')
      | Error msg -> Alcotest.fail ("decode failed: " ^ msg))
    sample_requests

let test_response_roundtrip () =
  List.iter
    (fun resp ->
      match Wire.decode_response (Wire.encode_response resp) with
      | Ok resp' ->
          Alcotest.(check string) "re-encodes identically" (Wire.encode_response resp)
            (Wire.encode_response resp')
      | Error msg -> Alcotest.fail ("decode failed: " ^ msg))
    sample_responses

let decode_total =
  (* the version byte and tag of every request and response *)
  let heads =
    List.map (fun req -> String.sub (Wire.encode_request req) 0 2) sample_requests
    @ List.map (fun resp -> String.sub (Wire.encode_response resp) 0 2) sample_responses
  in
  QCheck.Test.make ~name:"wire decoders are total" ~count:500
    (QCheck.pair
       (QCheck.string_gen_of_size (QCheck.Gen.int_bound 80) (QCheck.Gen.map Char.chr (QCheck.Gen.int_bound 255)))
       (Edge_bytes.arb heads))
    (fun (junk, edge) ->
      List.for_all
        (fun s ->
          (match Wire.decode_request s with Ok _ | Error _ -> true)
          && match Wire.decode_response s with Ok _ | Error _ -> true)
        [ junk; edge ])

(* MD5s computed before the formats shared one codec: every request and
   response variant keeps its exact bytes *)
let test_known_answers () =
  Alcotest.(check (list string)) "request digests"
    [
      "0b274ca262990e18941c1f4667dedccb";
      "37097b2eb83185cb946c6b5d1537bce7";
      "03d844bea55cfd00a6fac2fb6d8752c3";
      "859d0f2711f743b48fe12cd0f0a47d09";
      "764ed29a32b7565cdc1e6c68e20e07a5";
      "b80660ce78a574bd878ce12b94a687c4";
      "56f620338c9fe410a0369834c5825af1";
      "d2bbb0942638f433b42ae9de241b17f7";
      "a45e087c7e13b4b20da473fd2f7cecf4";
      "e11b3cfe470196fc681eb470818d94d6";
      "5277c89a4ac882a17e93b64d97c52ce4";
      "6fbf0afa9c442d2d5f9c1906ee873f76";
    ]
    (List.map (fun req -> Edge_bytes.md5 (Wire.encode_request req)) sample_requests);
  Alcotest.(check (list string)) "response digests"
    [
      "4a79d74a4a22a48c974f7525efcd7ad5";
      "5b578a5f6c7d864d9b286f2303bda988";
      "13150a29412e12cbb56832c2d943beed";
      "a1ebe1e46bb4c5cf2f692ac2f107b21e";
      "774c663727f1483e862af88e85f42b05";
      "4b71858c3cde2185b5865dd73c8f16e5";
      "64c27b6375b0f0c390bd36d68d973f05";
      "6cb66a0c48fd3cfa99e9752a31d83b8a";
      "b70e47fc7dc746e996772edb7f6f7953";
      "7668630532093d90bd16957717c6f326";
      "018ba550708553fac61f93264d945c60";
      "39648f96318f3ac1b14777f1b38dbd8d";
      "1ea2dde7090a7b89bd5a64698113b727";
      "f3b3b156f87ce5c04760f4fa875d4236";
      "937c755db41cf40aa720d36ef8de1dde";
    ]
    (List.map (fun resp -> Edge_bytes.md5 (Wire.encode_response resp)) sample_responses)

(* an option tag other than 0/1 is malformed, not [Some] *)
let test_rejects_bad_option_tag () =
  let good = Wire.encode_response (Proto.Blob_data { digest = "d"; payload = None }) in
  (* swap the final None tag for tag 2 followed by a well-formed string *)
  let bad = String.sub good 0 (String.length good - 1) ^ "\x02\x01p" in
  match Wire.decode_response bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "option tag 2 accepted"

(* program bytes holding a negative-valued varint are the client's fault:
   the handler answers bad-request instead of raising *)
let test_recognize_overflowing_program () =
  with_temp_dir (fun dir ->
      let store = Store.Registry.open_store ~root:(Filename.concat dir "reg") () in
      let pool = Engine.Pool.create ~domains:1 () in
      Fun.protect
        ~finally:(fun () ->
          Engine.Pool.shutdown pool;
          Store.Registry.close store)
        (fun () ->
          let req =
            Proto.Recognize
              { scheme = "jwm"; source = `Bytes Edge_bytes.svm1_negative_name; key = "k"; bits = 64; input = [] }
          in
          match Service.Server.handle ~store ~pool ~requests:0 ~errors:0 req with
          | Proto.Error { code; _ } -> Alcotest.(check string) "error code" "bad-request" code
          | _ -> Alcotest.fail "undecodable program recognized"))

let test_rejects_trailing_and_version () =
  let good = Wire.encode_request Proto.Stats in
  (match Wire.decode_request (good ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  let bad_version = "\x63" ^ String.sub good 1 (String.length good - 1) in
  match Wire.decode_request bad_version with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong protocol version accepted"

(* ---- end-to-end over a Unix-domain socket ----

   The same branchy gcd/sum host the jwm tests use: small enough to embed
   and recognize quickly, branchy enough for the trace to carry a mark. *)

let host_program =
  let gcd =
    Asm.func ~name:"gcd" ~nargs:2 ~nlocals:3
      Asm.[
        L "loop";
        I (Instr.Load 1); I (Instr.Const 0); I (Instr.Cmp Instr.Eq); Br (true, "done");
        I (Instr.Load 0); I (Instr.Load 1); I (Instr.Binop Instr.Rem); I (Instr.Store 2);
        I (Instr.Load 1); I (Instr.Store 0);
        I (Instr.Load 2); I (Instr.Store 1);
        Jmp "loop";
        L "done";
        I (Instr.Load 0); I Instr.Ret;
      ]
  in
  let sum_to =
    Asm.func ~name:"sum_to" ~nargs:1 ~nlocals:3
      Asm.[
        I (Instr.Const 0); I (Instr.Store 1);
        I (Instr.Const 1); I (Instr.Store 2);
        L "loop";
        I (Instr.Load 2); I (Instr.Load 0); I (Instr.Cmp Instr.Gt); Br (true, "done");
        I (Instr.Load 1); I (Instr.Load 2); I (Instr.Binop Instr.Add); I (Instr.Store 1);
        I (Instr.Load 2); I (Instr.Const 1); I (Instr.Binop Instr.Add); I (Instr.Store 2);
        Jmp "loop";
        L "done";
        I (Instr.Load 1); I Instr.Ret;
      ]
  in
  let main =
    Asm.func ~name:"main" ~nargs:0 ~nlocals:4
      Asm.[
        I Instr.Read; I (Instr.Store 0);
        I Instr.Read; I (Instr.Store 1);
        I (Instr.Load 0); I (Instr.Load 1); I (Instr.Call "gcd"); I Instr.Print;
        I (Instr.Load 0); I (Instr.Call "sum_to"); I Instr.Print;
        I (Instr.Load 1); I (Instr.Call "sum_to"); I Instr.Print;
        I (Instr.Const 0); I Instr.Ret;
      ]
  in
  Program.make [ gcd; sum_to; main ]

let secret_input = [ 36; 84 ]
let passphrase = "the service test key"
let fingerprint = Bignum.of_string "240543712258492747"

(* On the failure path the server would otherwise sit in accept forever:
   nudge it with a best-effort Shutdown before joining. *)
let join_with_shutdown server socket_path =
  (try
     Service.Client.with_client ~deadline:0.5 socket_path (fun c ->
         ignore (Service.Client.call c Proto.Shutdown))
   with _ -> ());
  Domain.join server

let test_end_to_end () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "pathmark-test-%d.sock" (Unix.getpid ())) in
      let store = Store.Registry.open_store ~root:(Filename.concat dir "reg") () in
      let events = Engine.Events.create () in
      let server =
        Domain.spawn (fun () ->
            Service.Server.serve ~events ~domains:1 ~store ~socket_path ())
      in
      let stopped = ref { Service.Server.requests = 0; errors = 0; shed = 0 } in
      (* once the in-band Shutdown has been acknowledged the server is
         committed to exiting: the best-effort nudge must not fire, or it
         can race the teardown and be counted as a 15th request *)
      let clean = ref false in
      Fun.protect
        ~finally:(fun () ->
          stopped :=
            (if !clean then Domain.join server else join_with_shutdown server socket_path);
          Store.Registry.close store)
        (fun () ->
          Service.Client.with_client socket_path (fun client ->
              let call = Service.Client.call client in
              (* plain storage traffic *)
              (match call (Proto.Put_artifact { kind = Store.Artifact.Key_material; key = "km"; label = "l"; payload = "secret bits" }) with
              | Proto.Stored info -> Alcotest.(check int) "stored size" 11 info.Proto.size
              | _ -> Alcotest.fail "put failed");
              (match call (Proto.Get_artifact { kind = Store.Artifact.Key_material; key = "km" }) with
              | Proto.Artifact { payload; _ } -> Alcotest.(check string) "get round-trips" "secret bits" payload
              | _ -> Alcotest.fail "get failed");
              (match call (Proto.Get_artifact { kind = Store.Artifact.Trace; key = "absent" }) with
              | Proto.Error { code; _ } -> Alcotest.(check string) "missing is typed" "not-found" code
              | _ -> Alcotest.fail "missing artifact not an error");
              (* embed server-side, then recognize the registered program
                 by digest — the cross-process watermark check *)
              let embed_under scheme =
                match
                  call
                    (Proto.Embed
                       {
                         scheme;
                         program = Serialize.encode host_program;
                         key = passphrase;
                         bits = 64;
                         pieces = 20;
                         fingerprint;
                         input = secret_input;
                         seed = 7L;
                       })
                with
                | Proto.Embedded { digest; bytes_before; bytes_after; _ } ->
                    Alcotest.(check bool) "embedding grew the program" true (bytes_after > bytes_before);
                    digest
                | _ -> Alcotest.fail ("embed failed: " ^ scheme)
              in
              let digest = embed_under "jwm" in
              (match call (Proto.Recognize { scheme = "jwm"; source = `Stored digest; key = passphrase; bits = 64; input = secret_input }) with
              | Proto.Recognized { value = Some w; registered = Some info; _ } ->
                  Alcotest.(check bool) "recovered the fingerprint" true (Bignum.equal w fingerprint);
                  Alcotest.(check string) "linked back to the registry" digest info.Proto.key
              | Proto.Recognized { value = None; _ } -> Alcotest.fail "no watermark recovered"
              | _ -> Alcotest.fail "recognize failed");
              (* wrong passphrase recovers nothing (blindness) *)
              (match call (Proto.Recognize { scheme = "jwm"; source = `Stored digest; key = "wrong"; bits = 64; input = secret_input }) with
              | Proto.Recognized { value = None; _ } -> ()
              | Proto.Recognized { value = Some _; _ } -> Alcotest.fail "wrong key recovered a mark"
              | _ -> Alcotest.fail "recognize failed");
              (match call (Proto.Recognize { scheme = "jwm"; source = `Stored "unknown"; key = passphrase; bits = 64; input = secret_input }) with
              | Proto.Error { code; _ } -> Alcotest.(check string) "unknown digest" "not-found" code
              | _ -> Alcotest.fail "unknown digest not an error");
              (* the graph scheme crosses the same wire by name *)
              let gwm_digest = embed_under "gwm" in
              (match call (Proto.Recognize { scheme = "gwm"; source = `Stored gwm_digest; key = passphrase; bits = 64; input = secret_input }) with
              | Proto.Recognized { value = Some w; _ } ->
                  Alcotest.(check bool) "gwm recovered over the wire" true (Bignum.equal w fingerprint)
              | Proto.Recognized { value = None; _ } -> Alcotest.fail "gwm recovered nothing"
              | _ -> Alcotest.fail "gwm recognize failed");
              (* scheme routing failures are typed *)
              (match call (Proto.Recognize { scheme = "zwm"; source = `Bytes "irrelevant"; key = passphrase; bits = 64; input = [] }) with
              | Proto.Error { code; _ } -> Alcotest.(check string) "unknown scheme is typed" "unknown-scheme" code
              | _ -> Alcotest.fail "unknown scheme not an error");
              (match call (Proto.Recognize { scheme = "nwm"; source = `Bytes "irrelevant"; key = passphrase; bits = 64; input = [] }) with
              | Proto.Error { code; _ } -> Alcotest.(check string) "native scheme rejected" "bad-request" code
              | _ -> Alcotest.fail "native scheme not an error");
              (match call Proto.Stats with
              | Proto.Stats_reply { entries; errors; _ } ->
                  (* key material + 2 × (marked program + embed report) *)
                  Alcotest.(check int) "entries" 5 entries;
                  Alcotest.(check int) "errors counted" 4 errors
              | _ -> Alcotest.fail "stats failed");
              (match call Proto.List_artifacts with
              | Proto.Listing infos ->
                  Alcotest.(check bool) "listing mentions the program" true
                    (List.exists (fun (i : Proto.entry_info) -> i.Proto.kind = Store.Artifact.Vm_program && i.Proto.key = digest) infos)
              | _ -> Alcotest.fail "list failed");
              match call Proto.Shutdown with
              | Proto.Shutting_down -> clean := true
              | _ -> Alcotest.fail "shutdown failed"));
      Alcotest.(check int) "request count" 14 !stopped.Service.Server.requests;
      Alcotest.(check int) "error count" 4 !stopped.Service.Server.errors;
      Alcotest.(check bool) "socket removed" true (not (Sys.file_exists socket_path));
      let counters = Engine.Events.counters events in
      let get name = Option.value ~default:0 (List.assoc_opt name counters) in
      Alcotest.(check int) "service.requests counter" 14 (get "service.requests");
      Alcotest.(check int) "service.errors counter" 4 (get "service.errors"))

let test_max_requests_stops_server () =
  with_temp_dir (fun dir ->
      let socket_path = Filename.concat (Filename.get_temp_dir_name ()) (Printf.sprintf "pathmark-max-%d.sock" (Unix.getpid ())) in
      let store = Store.Registry.open_store ~root:(Filename.concat dir "reg") () in
      let server =
        Domain.spawn (fun () -> Service.Server.serve ~domains:1 ~max_requests:2 ~store ~socket_path ())
      in
      Service.Client.with_client socket_path (fun client ->
          (match Service.Client.call client Proto.Stats with
          | Proto.Stats_reply _ -> ()
          | _ -> Alcotest.fail "stats failed");
          match Service.Client.call client Proto.List_artifacts with
          | Proto.Listing _ -> ()
          | _ -> Alcotest.fail "list failed");
      let stopped = join_with_shutdown server socket_path in
      Store.Registry.close store;
      Alcotest.(check int) "stopped at the budget" 2 stopped.Service.Server.requests)

let suite =
  [
    Alcotest.test_case "request codec round-trips" `Quick test_request_roundtrip;
    Alcotest.test_case "response codec round-trips" `Quick test_response_roundtrip;
    QCheck_alcotest.to_alcotest decode_total;
    Alcotest.test_case "rejects trailing bytes and wrong version" `Quick test_rejects_trailing_and_version;
    Alcotest.test_case "wire codec known-answer bytes" `Quick test_known_answers;
    Alcotest.test_case "rejects option tags other than 0 and 1" `Quick test_rejects_bad_option_tag;
    Alcotest.test_case "recognize of overflowing program bytes is a bad request" `Quick
      test_recognize_overflowing_program;
    Alcotest.test_case "end-to-end over a unix socket" `Quick test_end_to_end;
    Alcotest.test_case "max-requests stops the server" `Quick test_max_requests_stops_server;
  ]
