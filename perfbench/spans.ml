(* In-memory span and count recorder for the traced run.

   The benchmark wraps each call it makes into a layer's public functions
   in a span (name, start, end, parent span, request id) and records
   counts at the same boundaries.  Nothing is written until [write] at the
   end of the run, so recording costs two clock reads and a cons.  Safe to
   use from several threads. *)

type span = { id : int; parent : int; req : int; name : string; t0 : float; t1 : float }

type t = {
  lock : Mutex.t;
  mutable next : int;
  mutable spans : span list;
  mutable counts : (int * string * float) list;  (* req, name, value *)
}

let create () = { lock = Mutex.create (); next = 1; spans = []; counts = [] }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let fresh_id t =
  locked t (fun () ->
      let id = t.next in
      t.next <- id + 1;
      id)

(* [span t ~req name f] runs [f id] inside a span; [id] is the parent to
   give the spans of nested calls.  Parent 0 marks a root span. *)
let span t ?(parent = 0) ~req name f =
  let id = fresh_id t in
  let t0 = Unix.gettimeofday () in
  let finish () =
    let t1 = Unix.gettimeofday () in
    locked t (fun () -> t.spans <- { id; parent; req; name; t0; t1 } :: t.spans)
  in
  match f id with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let count t ~req name v = locked t (fun () -> t.counts <- (req, name, v) :: t.counts)

let ms s = (s.t1 -. s.t0) *. 1000.0

(* Self time: the span's duration minus the part of it that its child
   spans cover (children's intervals merged, so overlap counts once). *)
let self_times t =
  let spans = locked t (fun () -> t.spans) in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  let self s =
    let ivs = List.sort compare (Hashtbl.find_all children s.id) in
    let covered, _ =
      List.fold_left
        (fun (acc, reach) (a, b) ->
          let a = Float.max a reach in
          if b > a then (acc +. (b -. a), b) else (acc, reach))
        (0.0, s.t0) ivs
    in
    Float.max 0.0 (ms s -. (covered *. 1000.0))
  in
  List.rev_map (fun s -> (s, self s)) spans

(* Per span name: calls, summed duration, summed self time (ms). *)
let totals t =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let n, total, selft = Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, total +. ms s, selft +. self))
    (self_times t);
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Summed duration of the spans named [name] (ms); 0 when never called. *)
let sum_ms t name = match List.assoc_opt name (totals t) with Some (_, total, _) -> total | None -> 0.0

let calls t name = match List.assoc_opt name (totals t) with Some (n, _, _) -> n | None -> 0

(* Mean duration per call (ms); 0 when never called. *)
let mean_ms t name = match calls t name with 0 -> 0.0 | n -> sum_ms t name /. float_of_int n

let count_values t name =
  locked t (fun () -> List.filter_map (fun (_, k, v) -> if k = name then Some v else None) t.counts)

let sum_count t name = List.fold_left ( +. ) 0.0 (count_values t name)

(* One line per span name: calls, total and self time. *)
let summary t =
  List.map
    (fun (name, (n, total, self)) ->
      Printf.sprintf "span %-28s calls %6d  total %10.3f ms  self %10.3f ms" name n total self)
    (totals t)

let write t path =
  let oc = open_out path in
  let origin =
    List.fold_left (fun acc (s, _) -> Float.min acc s.t0) infinity (self_times t)
  in
  List.iter
    (fun (s, self) ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start_ms\":%.4f,\"dur_ms\":%.4f,\"self_ms\":%.4f}\n"
        s.id s.parent s.req s.name
        ((s.t0 -. origin) *. 1000.0)
        (ms s) self)
    (List.sort (fun (a, _) (b, _) -> compare a.id b.id) (self_times t));
  List.iter
    (fun (req, name, v) -> Printf.fprintf oc "{\"req\":%d,\"count\":%S,\"value\":%.17g}\n" req name v)
    (List.rev (locked t (fun () -> t.counts)));
  close_out oc
