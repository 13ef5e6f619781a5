type t = {
  primes : int array;
  cipher : Crypto.Feistel.t;
  block_bits : int;
  watermark_bits : int;
  enumeration_total : int;
}

let seed_of_passphrase passphrase =
  let h = ref 0x811C9DC5A2B39F17L in
  String.iter
    (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    passphrase;
  !h

let enumeration_total primes =
  let r = Array.length primes in
  let total = ref 0 in
  for i = 0 to r - 1 do
    for j = i + 1 to r - 1 do
      let pair = primes.(i) * primes.(j) in
      if !total > max_int - pair then invalid_arg "Params: enumeration range overflows int";
      total := !total + pair
    done
  done;
  !total

let make ?(prime_bits = 25) ?(block_bits = Crypto.Feistel.default_block_bits) ~passphrase ~watermark_bits () =
  if watermark_bits < 1 then invalid_arg "Params.make: watermark_bits must be positive";
  if prime_bits < 8 || prime_bits > 30 then invalid_arg "Params.make: prime_bits out of [8, 30]";
  (* Primes of exactly [prime_bits] bits are at least 2^(prime_bits-1), so r
     primes give a capacity of at least 2^(r*(prime_bits-1)). *)
  let r = (watermark_bits + prime_bits - 2) / (prime_bits - 1) in
  let r = max r 2 in
  let rng = Util.Prng.create (seed_of_passphrase passphrase) in
  let primes = Array.of_list (Numtheory.Ints.coprime_moduli ~rng ~bits:prime_bits ~count:r) in
  let total = enumeration_total primes in
  if block_bits < 62 && total lsr block_bits <> 0 then
    invalid_arg "Params.make: piece enumeration does not fit the cipher block";
  let cipher = Crypto.Feistel.of_passphrase ~block_bits (passphrase ^ "|piece-cipher") in
  { primes; cipher; block_bits; watermark_bits; enumeration_total = total }

let r t = Array.length t.primes

let pair_count t =
  let n = r t in
  n * (n - 1) / 2

let capacity t = Array.fold_left (fun acc p -> Bignum.mul acc (Bignum.of_int p)) Bignum.one t.primes

let max_watermark_bits t =
  let cap = capacity t in
  (* largest n such that 2^n <= cap *)
  let bits = Bignum.num_bits cap in
  if Bignum.equal cap (Bignum.shift_left Bignum.one (bits - 1)) then bits - 1 else bits - 1

let fits t w = Bignum.sign w >= 0 && Bignum.num_bits w <= t.watermark_bits
