(* Tests for the persistent watermark registry: journal framing, crash
   recovery (torn tails truncated, never propagated), the content-addressed
   blob area, and compaction. *)

open Store

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "pathmark-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let journal_path root = Filename.concat root "journal.pmj"

(* ---- CRC-32 ---- *)

let test_crc32_vectors () =
  (* the classic IEEE 802.3 check value *)
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check bool) "different payloads differ" true (Crc32.string "a" <> Crc32.string "b")

(* ---- artifact op codec ---- *)

let arbitrary_op =
  let gen =
    let open QCheck.Gen in
    let kind = oneofl Artifact.all_kinds in
    let any_string = string_size ~gen:(map Char.chr (int_bound 255)) (int_bound 40) in
    oneof
      [
        map
          (fun ((kind, seq, key), (label, blob, size, created_at)) ->
            Artifact.Put { kind; key; label; blob; size; seq; created_at })
          (pair (triple kind nat any_string) (quad any_string any_string nat nat));
        map (fun (kind, seq, key) -> Artifact.Delete { kind; key; seq }) (triple kind nat any_string);
      ]
  in
  QCheck.make ~print:(fun op -> String.escaped (Artifact.encode op)) gen

let op_roundtrip =
  QCheck.Test.make ~name:"artifact op codec round-trips" ~count:300 arbitrary_op (fun op ->
      Artifact.decode (Artifact.encode op) = Some op)

let op_total =
  let tags = List.map (fun k -> (Artifact.encode (Artifact.Delete { kind = k; key = ""; seq = 0 })).[1]) Artifact.all_kinds in
  QCheck.Test.make ~name:"artifact decode is total"
    ~count:300
    (QCheck.pair
       QCheck.(string_gen_of_size (QCheck.Gen.int_bound 60) (QCheck.Gen.map Char.chr (QCheck.Gen.int_bound 255)))
       (Edge_bytes.arb (Edge_bytes.tagged "P" tags @ Edge_bytes.tagged "D" tags)))
    (fun (junk, edge) ->
      (match Artifact.decode junk with Some _ | None -> true)
      && match Artifact.decode edge with Some _ | None -> true)

(* ---- registry round-trips, including across reopen ---- *)

let arbitrary_payloads =
  QCheck.(
    list_of_size
      Gen.(int_range 1 12)
      (pair (string_gen_of_size (Gen.int_bound 16) Gen.printable)
         (string_gen_of_size (Gen.int_bound 200) (Gen.map Char.chr (Gen.int_bound 255)))))

let registry_roundtrip =
  QCheck.Test.make ~name:"registry round-trips across reopen" ~count:30 arbitrary_payloads
    (fun pairs ->
      with_temp_dir (fun dir ->
          let root = Filename.concat dir "reg" in
          let store = Registry.open_store ~root () in
          List.iter
            (fun (key, payload) -> ignore (Registry.put store ~kind:Artifact.Trace ~key payload))
            pairs;
          Registry.close store;
          let store = Registry.open_store ~root () in
          Fun.protect
            ~finally:(fun () -> Registry.close store)
            (fun () ->
              (* last write per key wins, as in a Hashtbl built left-to-right *)
              let expected = Hashtbl.create 16 in
              List.iter (fun (k, v) -> Hashtbl.replace expected k v) pairs;
              Hashtbl.fold
                (fun key payload acc ->
                  acc
                  &&
                  match Registry.get store ~kind:Artifact.Trace ~key with
                  | Ok (got, _) -> got = payload
                  | Error _ -> false)
                expected true)))

let test_registry_basics () =
  with_temp_dir (fun dir ->
      let store = Registry.open_store ~root:(Filename.concat dir "reg") () in
      let e1 = Registry.put store ~kind:Artifact.Vm_program ~key:"k1" ~label:"one" "payload-1" in
      let _ = Registry.put store ~kind:Artifact.Trace ~key:"k1" "payload-2" in
      Alcotest.(check int) "sizes recorded" 9 e1.Artifact.size;
      (* kinds are separate namespaces *)
      (match Registry.get store ~kind:Artifact.Vm_program ~key:"k1" with
      | Ok (p, _) -> Alcotest.(check string) "vm slot" "payload-1" p
      | Error _ -> Alcotest.fail "vm k1 missing");
      (match Registry.get store ~kind:Artifact.Trace ~key:"k1" with
      | Ok (p, _) -> Alcotest.(check string) "trace slot" "payload-2" p
      | Error _ -> Alcotest.fail "trace k1 missing");
      Alcotest.(check bool) "get of absent key" true
        (Registry.get store ~kind:Artifact.Report ~key:"nope" = Error `Missing);
      (* identical payloads share one blob *)
      let e3 = Registry.put store ~kind:Artifact.Report ~key:"k3" "payload-1" in
      Alcotest.(check string) "content-addressed dedup" e1.Artifact.blob e3.Artifact.blob;
      (* delete is journalled and definitive *)
      Alcotest.(check bool) "delete live" true (Registry.delete store ~kind:Artifact.Report ~key:"k3");
      Alcotest.(check bool) "delete absent" false (Registry.delete store ~kind:Artifact.Report ~key:"k3");
      let seqs = List.map (fun (e : Artifact.entry) -> e.Artifact.seq) (Registry.list store) in
      Alcotest.(check (list int)) "list in sequence order" (List.sort compare seqs) seqs;
      let s = Registry.stats store in
      Alcotest.(check int) "live entries" 2 s.Registry.entries;
      Alcotest.(check int) "puts counted" 3 s.Registry.puts;
      Alcotest.(check int) "deletes counted" 1 s.Registry.deletes;
      Registry.close store)

let test_damaged_blob_is_typed () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "reg" in
      let store = Registry.open_store ~root () in
      let e = Registry.put store ~kind:Artifact.Vm_program ~key:"k" "the payload" in
      Registry.close store;
      (* rot the blob on disk behind the registry's back *)
      let shard = String.sub e.Artifact.blob 0 2 in
      let blob_file =
        Filename.concat (Filename.concat (Filename.concat root "objects") shard)
          (e.Artifact.blob ^ ".blob")
      in
      write_file blob_file "tampered bytes";
      let store = Registry.open_store ~root () in
      (match Registry.get store ~kind:Artifact.Vm_program ~key:"k" with
      | Error (`Damaged _) -> ()
      | Ok _ -> Alcotest.fail "tampered blob accepted"
      | Error `Missing -> Alcotest.fail "entry lost");
      Sys.remove blob_file;
      (match Registry.get store ~kind:Artifact.Vm_program ~key:"k" with
      | Error (`Damaged _) -> ()
      | _ -> Alcotest.fail "missing blob not reported as damage");
      Registry.close store)

(* ---- crash recovery: torn tails truncated at every byte offset ---- *)

let test_torn_tail_every_offset () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "reg" in
      let store = Registry.open_store ~root () in
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"a" "alpha");
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"b" "beta");
      let intact = read_file (journal_path root) in
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"c" "gamma");
      Registry.close store;
      let full = read_file (journal_path root) in
      let prefix = String.length intact in
      (* kill-mid-write at every byte of the last record: recovery must
         truncate back to the two intact records, never corrupt them *)
      for cut = prefix to String.length full - 1 do
        let croot = Filename.concat dir (Printf.sprintf "crash-%d" cut) in
        Sys.mkdir croot 0o755;
        write_file (journal_path croot) (String.sub full 0 cut);
        let crashed = Registry.open_store ~root:croot () in
        let r = Registry.recovery crashed in
        Alcotest.(check int) (Printf.sprintf "cut %d: replayed" cut) 2 r.Registry.replayed;
        Alcotest.(check int) (Printf.sprintf "cut %d: truncated" cut) (cut - prefix)
          r.Registry.truncated_bytes;
        Alcotest.(check int) (Printf.sprintf "cut %d: skipped" cut) 0 r.Registry.skipped;
        Alcotest.(check int) (Printf.sprintf "cut %d: entries" cut) 2
          (Registry.stats crashed).Registry.entries;
        Registry.close crashed;
        (* the truncation is repaired on disk: a second open is clean *)
        let again = Registry.open_store ~root:croot () in
        Alcotest.(check int) (Printf.sprintf "cut %d: repaired" cut) 0
          (Registry.recovery again).Registry.truncated_bytes;
        Registry.close again;
        rm_rf croot
      done)

let test_mid_journal_corruption_drops_suffix () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "reg" in
      let store = Registry.open_store ~root () in
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"a" "alpha");
      let one = String.length (read_file (journal_path root)) in
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"b" "beta");
      Registry.close store;
      let full = read_file (journal_path root) in
      (* flip a byte inside the FIRST record's body: its CRC fails, and the
         journal is a prefix format, so the intact second record is
         unreachable and must be dropped too *)
      let broken = Bytes.of_string full in
      Bytes.set broken (one - 1) (Char.chr (Char.code full.[one - 1] lxor 0xFF));
      write_file (journal_path root) (Bytes.to_string broken);
      let store = Registry.open_store ~root () in
      let r = Registry.recovery store in
      Alcotest.(check int) "nothing replayed" 0 r.Registry.replayed;
      Alcotest.(check bool) "suffix truncated" true (r.Registry.truncated_bytes > 0);
      Alcotest.(check int) "no live entries" 0 (Registry.stats store).Registry.entries;
      Registry.close store)

let test_bad_magic_raises () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "reg" in
      Sys.mkdir root 0o755;
      write_file (journal_path root) "GARBAGE FILE THAT IS NOT A JOURNAL\n";
      match Registry.open_store ~root () with
      | exception Registry.Corrupt _ -> ()
      | store ->
          Registry.close store;
          Alcotest.fail "bad magic accepted")

(* ---- compaction ---- *)

let count_blobs root =
  let objects = Filename.concat root "objects" in
  Array.fold_left
    (fun acc shard ->
      let d = Filename.concat objects shard in
      if Sys.is_directory d then acc + Array.length (Sys.readdir d) else acc)
    0 (Sys.readdir objects)

let test_compaction_preserves_contents () =
  with_temp_dir (fun dir ->
      let root = Filename.concat dir "reg" in
      let store = Registry.open_store ~root () in
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"a" "version one");
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"a" "version two");
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"b" "kept");
      ignore (Registry.put store ~kind:Artifact.Trace ~key:"doomed" "unique doomed payload");
      ignore (Registry.delete store ~kind:Artifact.Trace ~key:"doomed");
      let before_bytes = (Registry.stats store).Registry.journal_bytes in
      let before_blobs = count_blobs root in
      let c = Registry.compact store in
      Alcotest.(check int) "live entries kept" 2 c.Registry.live;
      Alcotest.(check int) "stale records dropped" 3 c.Registry.dropped_records;
      Alcotest.(check int) "orphan blobs removed" 2 c.Registry.blobs_removed;
      Alcotest.(check int) "blob files gone" (before_blobs - 2) (count_blobs root);
      Alcotest.(check bool) "journal shrank" true
        ((Registry.stats store).Registry.journal_bytes < before_bytes);
      (match Registry.get store ~kind:Artifact.Trace ~key:"a" with
      | Ok (p, _) -> Alcotest.(check string) "overwrite survives" "version two" p
      | Error _ -> Alcotest.fail "a lost by compaction");
      Registry.close store;
      (* and the compacted journal replays cleanly *)
      let store = Registry.open_store ~root () in
      Alcotest.(check int) "replays to same entries" 2 (Registry.stats store).Registry.entries;
      (match Registry.get store ~kind:Artifact.Trace ~key:"b" with
      | Ok (p, _) -> Alcotest.(check string) "b survives" "kept" p
      | Error _ -> Alcotest.fail "b lost by compaction");
      Registry.close store)

let suite =
  [
    Alcotest.test_case "crc32 vectors" `Quick test_crc32_vectors;
    QCheck_alcotest.to_alcotest op_roundtrip;
    QCheck_alcotest.to_alcotest op_total;
    QCheck_alcotest.to_alcotest registry_roundtrip;
    Alcotest.test_case "registry basics" `Quick test_registry_basics;
    Alcotest.test_case "damaged blob is typed" `Quick test_damaged_blob_is_typed;
    Alcotest.test_case "torn tail truncated at every offset" `Quick test_torn_tail_every_offset;
    Alcotest.test_case "mid-journal corruption drops suffix" `Quick test_mid_journal_corruption_drops_suffix;
    Alcotest.test_case "bad magic raises" `Quick test_bad_magic_raises;
    Alcotest.test_case "compaction preserves contents" `Quick test_compaction_preserves_contents;
  ]

(* ---- journal records: known answers ---- *)

(* MD5s computed before the formats shared one codec *)
let test_op_known_answers () =
  let ops =
    [
      Artifact.Put
        {
          kind = Artifact.Vm_program;
          key = "9e107d9d372bb6826bd81d3542a419d6";
          label = "fp:424242";
          blob = "e4d909c290d0fb1ca068ffaddf22cbd0";
          size = 4814;
          seq = 300;
          created_at = 1_700_000_000;
        };
      Artifact.Delete { kind = Artifact.Cache_entry; key = "k\x00\xff"; seq = max_int };
    ]
  in
  Alcotest.(check (list string)) "journal record digests"
    [
      "1f6ef7b5fac24b2ffc6ee27601cad3ed";
      "7523dad52bd091e065563376e54d6765";
    ]
    (List.map (fun op -> Edge_bytes.md5 (Artifact.encode op)) ops);
  List.iter (fun op -> Alcotest.(check bool) "round-trips" true (Artifact.decode (Artifact.encode op) = Some op)) ops

(* a key length of max_int (nine bytes ending 0x3F) must not overflow the
   bounds check into an out-of-range read *)
let test_op_max_length () =
  Alcotest.(check bool) "max_int key length is malformed" true
    (Artifact.decode ("Pv\x01" ^ String.make 8 '\xff' ^ "\x3fkey") = None)

let suite =
  suite
  @ [
      Alcotest.test_case "journal record known-answer bytes" `Quick test_op_known_answers;
      Alcotest.test_case "journal record with a max_int length is malformed" `Quick test_op_max_length;
    ]
