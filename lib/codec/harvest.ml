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
  mutable length : int;
  mutable count : int;
}

let default_strides = [ 1; 2 ]

let create ?(dedup_overlaps = true) ?(strides = default_strides) params =
  let stride k =
    if k < 1 then invalid_arg "Harvest.create: stride";
    { stride = k; windows = Array.make k 0; last_seen = Hashtbl.create 64; stmts = [] }
  in
  { params; dedup_overlaps; strides = Array.of_list (List.map stride strides); length = 0; count = 0 }

let push t bit =
  let n = t.length in
  t.length <- n + 1;
  let width = t.params.Params.block_bits in
  let hi = width - 1 in
  let b = Bool.to_int bit in
  for k = 0 to Array.length t.strides - 1 do
    let st = Array.unsafe_get t.strides k in
    (* bit [n] enters its chain's window at the top; the window's oldest
       bit, at bit 0, is the one at position [pos] *)
    let c = n mod st.stride in
    let v = (Array.unsafe_get st.windows c lsr 1) lor (b lsl hi) in
    Array.unsafe_set st.windows c v;
    let pos = n - (hi * st.stride) in
    if pos >= 0 then
      match Statement.decode t.params v with
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
              | Some prev -> pos - prev >= width * st.stride
              | None -> true
            in
            Hashtbl.replace st.last_seen s pos;
            fresh
          in
          if fresh then begin
            st.stmts <- s :: st.stmts;
            t.count <- t.count + 1
          end
  done

let length t = t.length
let count t = t.count
let statements t = Array.fold_left (fun acc st -> st.stmts @ acc) [] t.strides
