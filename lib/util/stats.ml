let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
      let logsum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
      exp (logsum /. float_of_int (List.length xs))

let stddev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let m = mean xs in
      let var = mean (List.map (fun x -> (x -. m) ** 2.0) xs) in
      sqrt var

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let spec_average xs =
  if List.length xs < 3 then mean xs
  else begin
    let a = Array.of_list xs in
    Array.sort compare a;
    let middle = Array.to_list (Array.sub a 1 (Array.length a - 2)) in
    mean middle
  end

let percent ~before ~after = (after -. before) /. before *. 100.0

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))
