type cell_spec = {
  cell_fingerprint : Bignum.t;
  cell_attack : string;
  cell_control : bool;
  cell_fault_seed : int64;
  cell_faults : Fault.Spec.t list;
}

type action =
  | Embed of { fingerprint : Bignum.t; pieces : int }
  | Recognize of { expected : Bignum.t option }
  | Attack_campaign of { expected : Bignum.t; attacks : string list }
  | Audit of { fingerprint : Bignum.t }
  | Tournament_cell of cell_spec

type host = Vm of Stackvm.Program.t | Native of Nativesim.Asm.program

type t = {
  label : string;
  key : string;
  bits : int;
  input : int list;
  seed : int64;
  fuel : int option;
  scheme : string;
  host : host;
  action : action;
}

let default_seed = 0x1234_5678L
let default_vm_scheme = "jwm"
let default_native_scheme = "nwm"

let make ?label ~default_label ?(seed = default_seed) ?fuel ~scheme ~key ~bits ~input host action =
  let label = Option.value label ~default:default_label in
  { label; key; bits; input; seed; fuel; scheme; host; action }

let vm_embed ?label ?seed ?fuel ?(scheme = default_vm_scheme) ~key ~bits ~pieces ~fingerprint ~input
    program =
  make ?label ~default_label:("embed:" ^ Bignum.to_string fingerprint) ?seed ?fuel ~scheme ~key ~bits
    ~input (Vm program) (Embed { fingerprint; pieces })

let vm_recognize ?label ?seed ?fuel ?(scheme = default_vm_scheme) ?expected ~key ~bits ~input program =
  make ?label ~default_label:"recognize" ?seed ?fuel ~scheme ~key ~bits ~input (Vm program)
    (Recognize { expected })

let vm_attack_campaign ?label ?seed ?fuel ?(scheme = default_vm_scheme) ~key ~bits ~expected ~attacks
    ~input program =
  make ?label
    ~default_label:(Printf.sprintf "attack[%d]" (List.length attacks))
    ?seed ?fuel ~scheme ~key ~bits ~input (Vm program)
    (Attack_campaign { expected; attacks })

(* nwm embeds one region, so the redundancy field is fixed at 1 *)
let native_embed ?label ?seed ?fuel ~bits ~fingerprint ~input program =
  make ?label ~default_label:("native-embed:" ^ Bignum.to_string fingerprint) ?seed ?fuel
    ~scheme:default_native_scheme ~key:"" ~bits ~input (Native program)
    (Embed { fingerprint; pieces = 1 })

let audit ?label ?seed ?fuel ~scheme ~key ~bits ~fingerprint ~input host =
  make ?label ~default_label:("audit:" ^ scheme) ?seed ?fuel ~scheme ~key ~bits ~input host
    (Audit { fingerprint })

let cell_spec ?(control = false) ?(fault_seed = 1L) ?(faults = []) ~fingerprint ~attack () =
  {
    cell_fingerprint = fingerprint;
    cell_attack = attack;
    cell_control = control;
    cell_fault_seed = fault_seed;
    cell_faults = faults;
  }

let tournament_cell ?label ?seed ?fuel ~scheme ~key ~bits ~input ~cell host =
  make ?label
    ~default_label:(Printf.sprintf "cell:%s:%s" scheme cell.cell_attack)
    ?seed ?fuel ~scheme ~key ~bits ~input host (Tournament_cell cell)

let program_bytes t =
  match t.host with
  | Vm program -> Stackvm.Serialize.encode program
  | Native program -> Nativesim.Binary.encode (Nativesim.Asm.assemble program)

let hex s = Digest.to_hex (Digest.string s)
let program_digest t = hex (program_bytes t)

(* Canonical spec encoding for digesting: a tagged, length-unambiguous
   text rendering of every semantic field followed by the program bytes. *)
let add_field buf name value =
  Buffer.add_string buf name;
  Buffer.add_char buf '=';
  Buffer.add_string buf (string_of_int (String.length value));
  Buffer.add_char buf ':';
  Buffer.add_string buf value;
  Buffer.add_char buf '\n'

let input_string input = String.concat "," (List.map string_of_int input)
let fuel_string fuel = match fuel with None -> "none" | Some f -> string_of_int f

let trace_digest t =
  let buf = Buffer.create 256 in
  add_field buf "pathmark-trace" "v1";
  add_field buf "input" (input_string t.input);
  add_field buf "fuel" (fuel_string t.fuel);
  add_field buf "program" (program_bytes t);
  hex (Buffer.contents buf)

let action_fields buf t =
  match t.action with
  | Embed { fingerprint; pieces } ->
      add_field buf "action" "embed";
      add_field buf "fingerprint" (Bignum.to_string fingerprint);
      add_field buf "pieces" (string_of_int pieces)
  | Recognize { expected } ->
      add_field buf "action" "recognize";
      add_field buf "expected" (match expected with None -> "" | Some w -> Bignum.to_string w)
  | Attack_campaign { expected; attacks } ->
      add_field buf "action" "attack";
      add_field buf "expected" (Bignum.to_string expected);
      add_field buf "attacks" (String.concat "," attacks)
  | Audit { fingerprint } ->
      add_field buf "action" "audit";
      add_field buf "fingerprint" (Bignum.to_string fingerprint)
  | Tournament_cell cell ->
      add_field buf "action" "tournament";
      add_field buf "fingerprint" (Bignum.to_string cell.cell_fingerprint);
      add_field buf "attack" cell.cell_attack;
      add_field buf "control" (string_of_bool cell.cell_control);
      add_field buf "fault_seed" (Int64.to_string cell.cell_fault_seed);
      add_field buf "faults" (String.concat "," (List.map Fault.Spec.to_string cell.cell_faults))

let digest t =
  let buf = Buffer.create 512 in
  add_field buf "pathmark-job" "v2";
  add_field buf "key" t.key;
  add_field buf "scheme" t.scheme;
  add_field buf "bits" (string_of_int t.bits);
  add_field buf "input" (input_string t.input);
  add_field buf "seed" (Int64.to_string t.seed);
  add_field buf "fuel" (fuel_string t.fuel);
  action_fields buf t;
  add_field buf "program" (program_bytes t);
  hex (Buffer.contents buf)

let kind t =
  let k =
    match t.action with
    | Embed _ -> "embed"
    | Recognize _ -> "recognize"
    | Attack_campaign _ -> "attack"
    | Audit _ -> "audit"
    | Tournament_cell _ -> "tournament"
  in
  match t.host with Vm _ -> k | Native _ -> "native-" ^ k

let describe t = Printf.sprintf "%s %s (%d bits, input [%s])" (kind t) t.label t.bits (input_string t.input)
