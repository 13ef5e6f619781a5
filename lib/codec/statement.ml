type t = { i : int; j : int; x : int }

let compare a b = Stdlib.compare (a.i, a.j, a.x) (b.i, b.j, b.x)
let equal a b = compare a b = 0
let pp fmt { i; j; x } = Format.fprintf fmt "W = %d (mod p%d*p%d)" x i j

let check_pair (params : Params.t) i j =
  let r = Array.length params.primes in
  if i < 0 || j <= i || j >= r then invalid_arg "Statement: bad prime pair"

let modulus (params : Params.t) s =
  check_pair params s.i s.j;
  params.primes.(s.i) * params.primes.(s.j)

let of_watermark params w ~pair:(i, j) =
  check_pair params i j;
  if not (Params.fits params w) then invalid_arg "Statement.of_watermark: watermark out of range";
  let m = params.primes.(i) * params.primes.(j) in
  let x = Bignum.to_int (Bignum.erem w (Bignum.of_int m)) in
  { i; j; x }

let all_of_watermark params w =
  let r = Params.r params in
  let acc = ref [] in
  for i = r - 1 downto 0 do
    for j = r - 1 downto i + 1 do
      acc := of_watermark params w ~pair:(i, j) :: !acc
    done
  done;
  !acc

let to_congruence params s = Numtheory.Gcrt.make_int ~residue:s.x ~modulus:(modulus params s)

(* Pairs are enumerated lexicographically: (0,1), (0,2), ..., (0,r-1),
   (1,2), ...; each pair owns a contiguous range of size p_i*p_j. *)
let pair_offset (params : Params.t) i j =
  let r = Array.length params.primes in
  let off = ref 0 in
  (try
     for a = 0 to r - 1 do
       for b = a + 1 to r - 1 do
         if a = i && b = j then raise Exit;
         off := !off + (params.primes.(a) * params.primes.(b))
       done
     done;
     invalid_arg "Statement.pair_offset: bad pair"
   with Exit -> ());
  !off

let enumerate params s =
  check_pair params s.i s.j;
  let m = modulus params s in
  if s.x < 0 || s.x >= m then invalid_arg "Statement.enumerate: residue out of range";
  pair_offset params s.i s.j + s.x

let unenumerate (params : Params.t) v =
  if v < 0 || v >= params.enumeration_total then None
  else begin
    let r = Array.length params.primes in
    let rec scan i j off =
      if i >= r - 1 then None
      else if j >= r then scan (i + 1) (i + 2) off
      else begin
        let m = params.primes.(i) * params.primes.(j) in
        if v < off + m then Some { i; j; x = v - off } else scan i (j + 1) (off + m)
      end
    in
    scan 0 1 0
  end

let encode params s = Crypto.Feistel.encrypt params.Params.cipher (enumerate params s)

let decode params block =
  match Crypto.Feistel.decrypt params.Params.cipher block with
  | v -> unenumerate params v
  | exception Invalid_argument _ -> None

let bits params s =
  let encoded = encode params s in
  List.init params.Params.block_bits (fun k -> (encoded lsr k) land 1 = 1)

let shared_primes a b =
  List.filter_map
    (fun (pa, pb) -> if pa = pb then Some pa else None)
    [ (a.i, b.i); (a.i, b.j); (a.j, b.i); (a.j, b.j) ]

let consistent (params : Params.t) a b =
  if a.i = b.i && a.j = b.j then a.x = b.x
  else
    List.for_all
      (fun idx -> a.x mod params.primes.(idx) = b.x mod params.primes.(idx))
      (shared_primes a b)

let agreeing_prime (params : Params.t) a b =
  if equal a b then None
  else
    List.find_opt
      (fun idx -> a.x mod params.primes.(idx) = b.x mod params.primes.(idx))
      (shared_primes a b)
