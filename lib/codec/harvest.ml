type stride = {
  stride : int;
  windows : int array;  (* rolling window per chain of positions (pos mod stride) *)
  last_seen : (Statement.t, int) Hashtbl.t;  (* start of each statement's latest window *)
  mutable stmts : Statement.t list;  (* newest first *)
}

type t = {
  params : Params.t;
  dedup_overlaps : bool;
  strides : stride array;  (* in the caller's order *)
  completed : int array;  (* strides whose window the current bit completed, in order *)
  blocks : int array;  (* their windows, decrypted in place *)
  lanes : int array;  (* the two-slot output of [Feistel.decrypt2] *)
  mutable length : int;
  mutable count : int;
}

let default_strides = [ 1; 2 ]

let create ?(dedup_overlaps = true) ?(strides = default_strides) params =
  let stride k =
    if k < 1 then invalid_arg "Harvest.create: stride";
    { stride = k; windows = Array.make k 0; last_seen = Hashtbl.create 64; stmts = [] }
  in
  let n = List.length strides in
  {
    params;
    dedup_overlaps;
    strides = Array.of_list (List.map stride strides);
    completed = Array.make n 0;
    blocks = Array.make n 0;
    lanes = Array.make 2 0;
    length = 0;
    count = 0;
  }

(* Count the window starting at [pos] if its plaintext [v] is a statement. *)
let take t st pos v =
  match Statement.unenumerate t.params v with
  | None -> ()
  | Some s ->
      (* Overlapping identical windows are one observation, not many: a
         long constant-bit run (e.g. a hot loop's branch) yields the same
         garbage block at hundreds of consecutive positions, which would
         otherwise swamp the residue vote.  A window only counts when it
         does not overlap the previous occurrence of the same statement. *)
      let fresh =
        (not t.dedup_overlaps)
        ||
        let fresh =
          match Hashtbl.find_opt st.last_seen s with
          | Some prev -> pos - prev >= t.params.Params.block_bits * st.stride
          | None -> true
        in
        Hashtbl.replace st.last_seen s pos;
        fresh
      in
      if fresh then begin
        st.stmts <- s :: st.stmts;
        t.count <- t.count + 1
      end

let push t bit =
  let n = t.length in
  t.length <- n + 1;
  let hi = t.params.Params.block_bits - 1 in
  let b = Bool.to_int bit in
  (* slide every stride's window; gather those that now hold a full block *)
  let ready = ref 0 in
  for k = 0 to Array.length t.strides - 1 do
    let st = Array.unsafe_get t.strides k in
    (* bit [n] enters its chain's window at the top; the window's oldest
       bit, at bit 0, is the one at position [n - hi * stride] *)
    let c = n mod st.stride in
    let v = (Array.unsafe_get st.windows c lsr 1) lor (b lsl hi) in
    Array.unsafe_set st.windows c v;
    if n >= hi * st.stride then begin
      Array.unsafe_set t.completed !ready k;
      Array.unsafe_set t.blocks !ready v;
      incr ready
    end
  done;
  (* decrypt them two lanes at a time, an odd one out alone *)
  let cipher = t.params.Params.cipher in
  let blocks = t.blocks and lanes = t.lanes in
  let j = ref 0 in
  while !j + 1 < !ready do
    Crypto.Feistel.decrypt2 cipher (Array.unsafe_get blocks !j) (Array.unsafe_get blocks (!j + 1)) lanes;
    Array.unsafe_set blocks !j (Array.unsafe_get lanes 0);
    Array.unsafe_set blocks (!j + 1) (Array.unsafe_get lanes 1);
    j := !j + 2
  done;
  if !j < !ready then Array.unsafe_set blocks !j (Crypto.Feistel.decrypt cipher (Array.unsafe_get blocks !j));
  (* harvest in the caller's stride order *)
  for j = 0 to !ready - 1 do
    let st = Array.unsafe_get t.strides (Array.unsafe_get t.completed j) in
    take t st (n - (hi * st.stride)) (Array.unsafe_get blocks j)
  done

let length t = t.length
let count t = t.count
let statements t = Array.fold_left (fun acc st -> st.stmts @ acc) [] t.strides
