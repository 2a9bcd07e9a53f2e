(* The output checker on hypergraphs small enough to work by hand. *)

open Perfbench_check

let failures = ref 0

let expect what cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL: %s\n" what
  end

(* nets: a = {1,2} weight 2, b = {2,3,4}, c = {3,4}; cells weigh 1 2 1 1 *)
let weighted = "% tiny\n3 4 11\n2 1 2\n1 2 3 4\r\n\n1 3 4\n1\n2\n1\n1\n"

let () =
  let nl = Check.of_hgr_string weighted in
  expect "counts" (Check.num_cells nl = 4 && Check.num_nets nl = 3);
  expect "pins" (Check.num_pins nl = 7);
  expect "total weight" (Check.total_weight nl = 5);
  (* {1,2 | 3,4}: only b spans both sides *)
  expect "cut of 0011" (Check.cut nl [| 0; 0; 1; 1 |] = 1);
  (* {1 | 2,3,4}: only a (weight 2) is cut *)
  expect "cut of 0111" (Check.cut nl [| 0; 1; 1; 1 |] = 2);
  (* W = 5, t = 0.2: part 0 within [floor 2.0, ceil 3.0] = [2, 3] *)
  expect "window" (Check.balance_window ~tolerance:0.2 nl = (2, 3));
  expect "balanced 0011" (Check.balanced ~tolerance:0.2 nl [| 0; 0; 1; 1 |]);
  expect "unbalanced 0111" (not (Check.balanced ~tolerance:0.2 nl [| 0; 1; 1; 1 |]));
  expect "verify ok" (Check.verify ~tolerance:0.2 nl ~cut:1 [| 0; 0; 1; 1 |] = Ok ());
  expect "miscounted cut"
    (Result.is_error (Check.verify ~tolerance:0.2 nl ~cut:2 [| 0; 0; 1; 1 |]));
  expect "short assignment"
    (Result.is_error (Check.verify ~tolerance:0.2 nl ~cut:1 [| 0; 0; 1 |]));
  expect "illegal balance"
    (Result.is_error (Check.verify ~tolerance:0.2 nl ~cut:2 [| 0; 1; 1; 1 |]));
  expect "bad side"
    (Result.is_error (Check.verify ~tolerance:0.2 nl ~cut:1 [| 0; 2; 1; 1 |]))

let () =
  (* unweighted: nets {1,2} {2,3}, unit cells *)
  let nl = Check.of_hgr_string "2 3\n1 2\n2 3\n" in
  expect "unit weights" (Check.total_weight nl = 3 && nl.Check.net_w = [| 1; 1 |]);
  expect "cut of 011" (Check.cut nl [| 0; 1; 1 |] = 1);
  expect "sides body" (Check.sides_of_string "0\n1\n1\n" = [| 0; 1; 1 |])

let () =
  (* Remove cell 1, add cell 5 (weight 3), add net {2,5}, reweight cell
     4 to 2, remove net c.  Survivors 2 3 4 5 become 0 1 2 3 weighing
     2 1 2 3; net a loses cell 1 and collapses to one pin; b becomes
     {0,1,2}; the added net becomes {0,3}. *)
  let nl = Check.of_hgr_string weighted in
  let delta =
    "HGRD 1\nbase 0123456789abcdef\nrmcell 1\naddcell 3\naddnet 1 2 5\n\
     reweight 4 2\nrmnet 3\nprior 4\n0\n0\n1\n1\n"
  in
  let p = Check.apply_delta nl delta in
  expect "patched cells" (p.Check.cell_w = [| 2; 1; 2; 3 |]);
  expect "patched nets" (p.Check.nets = [| [| 0; 1; 2 |]; [| 0; 3 |] |]);
  expect "patched cut" (Check.cut p [| 0; 1; 1; 0 |] = 1);
  (* W = 8, t = 0.25: [floor 3.0, ceil 5.0]; part 0 = 2 + 3 *)
  expect "patched balance" (Check.verify ~tolerance:0.25 p ~cut:1 [| 0; 1; 1; 0 |] = Ok ())

let () =
  if !failures > 0 then begin
    Printf.printf "%d checker test(s) failed\n" !failures;
    exit 1
  end
