(* Output checks made apart from the program: a minimal hMetis reader,
   the cut recomputed from the net list, the paper's balance window, and
   the application of .hgrd edit scripts to the benchmark's own copy of
   a net list.  Nothing here calls into lib/, so a fault in the
   program's parser, cut routine or patcher cannot vouch for itself. *)

type netlist = {
  nets : int array array;  (** 0-based pins of every net *)
  net_w : int array;
  cell_w : int array;
}

let num_cells nl = Array.length nl.cell_w
let num_nets nl = Array.length nl.nets
let num_pins nl = Array.fold_left (fun n p -> n + Array.length p) 0 nl.nets
let total_weight nl = Array.fold_left ( + ) 0 nl.cell_w

(* the ints of one line, [s.[i..j)] *)
let ints_of s i j =
  let acc = ref [] and k = ref i in
  while !k < j do
    while !k < j && (s.[!k] = ' ' || s.[!k] = '\t' || s.[!k] = '\r') do incr k done;
    if !k < j then begin
      let v = ref 0 and any = ref false in
      while !k < j && s.[!k] >= '0' && s.[!k] <= '9' do
        v := (!v * 10) + Char.code s.[!k] - 48;
        any := true;
        incr k
      done;
      if not !any then failwith (Printf.sprintf "hgr: bad token at byte %d" !k);
      acc := !v :: !acc
    end
  done;
  List.rev !acc

(* the non-blank, non-comment lines of [s] as (start, stop) offsets *)
let content_lines s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let j = match String.index_from_opt s i '\n' with Some j -> j | None -> n in
      let k = ref i in
      while !k < j && (s.[!k] = ' ' || s.[!k] = '\t' || s.[!k] = '\r') do incr k done;
      let acc = if !k = j || s.[!k] = '%' then acc else (i, j) :: acc in
      go (j + 1) acc
  in
  go 0 []

let of_hgr_string s =
  match content_lines s with
  | [] -> failwith "hgr: empty"
  | (i, j) :: rest ->
    let e, v, fmt =
      match ints_of s i j with
      | [ e; v ] -> (e, v, 0)
      | [ e; v; f ] -> (e, v, f)
      | _ -> failwith "hgr: bad header"
    in
    let edge_w = fmt mod 10 = 1 and vertex_w = fmt / 10 = 1 in
    let lines = Array.of_list rest in
    if Array.length lines < e + if vertex_w then v else 0 then
      failwith "hgr: truncated";
    let net_w = Array.make e 1 in
    let nets =
      Array.init e (fun n ->
          let a, b = lines.(n) in
          let xs = ints_of s a b in
          let xs =
            if edge_w then (
              net_w.(n) <- List.hd xs;
              List.tl xs)
            else xs
          in
          Array.of_list (List.map (fun p -> p - 1) xs))
    in
    let cell_w =
      Array.init v (fun c ->
          if vertex_w then
            let a, b = lines.(e + c) in
            List.hd (ints_of s a b)
          else 1)
    in
    { nets; net_w; cell_w }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_hgr path = of_hgr_string (read_file path)

let cut nl sides =
  let total = ref 0 in
  Array.iteri
    (fun n pins ->
      let zero = ref false and one = ref false in
      Array.iter (fun p -> if sides.(p) = 0 then zero := true else one := true) pins;
      if !zero && !one then total := !total + nl.net_w.(n))
    nl.nets;
  !total

let part0_weight nl sides =
  let w = ref 0 in
  Array.iteri (fun c s -> if s = 0 then w := !w + nl.cell_w.(c)) sides;
  !w

(* The paper's convention: part 0 weighs within
   [(0.5 - t/2) W, (0.5 + t/2) W].  Part weights are integers, so the
   window is rounded outward to whole weights. *)
let balance_window ~tolerance nl =
  let w = float_of_int (total_weight nl) in
  ( int_of_float (Float.floor ((0.5 -. (tolerance /. 2.)) *. w)),
    int_of_float (Float.ceil ((0.5 +. (tolerance /. 2.)) *. w)) )

let balanced ~tolerance nl sides =
  let lo, hi = balance_window ~tolerance nl in
  let w0 = part0_weight nl sides in
  lo <= w0 && w0 <= hi

(* Check one returned bipartition: its length, its sides, its cut against
   the recomputed one, and balance. *)
let verify ~tolerance nl ~cut:reported sides =
  if Array.length sides <> num_cells nl then
    Error
      (Printf.sprintf "assignment has %d sides for %d cells" (Array.length sides)
         (num_cells nl))
  else if Array.exists (fun s -> s <> 0 && s <> 1) sides then
    Error "assignment has a side other than 0 or 1"
  else
    let c = cut nl sides in
    if c <> reported then
      Error (Printf.sprintf "reported cut %d, recomputed cut %d" reported c)
    else if not (balanced ~tolerance nl sides) then
      let lo, hi = balance_window ~tolerance nl in
      Error
        (Printf.sprintf "part 0 weighs %d, outside [%d, %d]"
           (part0_weight nl sides) lo hi)
    else Ok ()

(* A partition body: one side per line. *)
let sides_of_string s =
  List.map (fun (i, j) -> match ints_of s i j with [ x ] -> x | _ -> -1)
    (content_lines s)
  |> Array.of_list

(* Apply the ops of an .hgrd edit script (ids 1-based; the k-th addcell
   is cell num_cells + k).  Removed cells leave the id space and the
   survivors keep their order, base cells first and added cells after;
   removed cells drop out of every net.  The base line and any prior
   section are ignored: they name the request, not the edit. *)
let apply_delta nl text =
  let lines = content_lines text in
  let ops =
    let rec take acc = function
      | [] -> List.rev acc
      | (i, j) :: rest ->
        let line = String.sub text i (j - i) |> String.trim in
        let word, args =
          match String.index_opt line ' ' with
          | None -> (line, "")
          | Some k -> (String.sub line 0 k, String.sub line k (String.length line - k))
        in
        if word = "prior" then List.rev acc
        else if word = "HGRD" || word = "base" then take acc rest
        else take ((word, ints_of args 0 (String.length args)) :: acc) rest
    in
    take [] lines
  in
  let added =
    List.filter_map (function "addcell", [ w ] -> Some w | _ -> None) ops
  in
  let weight = Array.append nl.cell_w (Array.of_list added) in
  let removed = Array.make (Array.length weight) false in
  let net_gone = Array.make (num_nets nl) false in
  let new_nets = ref [] in
  List.iter
    (fun (op, args) ->
      match (op, args) with
      | "addcell", [ _ ] -> ()
      | "rmcell", [ c ] -> removed.(c - 1) <- true
      | "reweight", [ c; w ] -> weight.(c - 1) <- w
      | "rmnet", [ n ] -> net_gone.(n - 1) <- true
      | "addnet", w :: pins ->
        new_nets := (w, Array.of_list (List.map (fun p -> p - 1) pins)) :: !new_nets
      | _ -> failwith ("hgrd: unknown op " ^ op))
    ops;
  let new_id = Array.make (Array.length weight) (-1) in
  let next = ref 0 in
  Array.iteri
    (fun c gone ->
      if not gone then begin
        new_id.(c) <- !next;
        incr next
      end)
    removed;
  let remap pins =
    Array.of_list
      (List.filter_map
         (fun p -> if new_id.(p) < 0 then None else Some new_id.(p))
         (Array.to_list pins))
  in
  let kept = ref [] in
  Array.iteri
    (fun n pins -> if not net_gone.(n) then kept := (nl.net_w.(n), remap pins) :: !kept)
    nl.nets;
  let all =
    List.rev !kept @ List.rev_map (fun (w, p) -> (w, remap p)) !new_nets
    |> List.filter (fun (_, p) -> Array.length p >= 2)
  in
  {
    nets = Array.of_list (List.map snd all);
    net_w = Array.of_list (List.map fst all);
    cell_w =
      Array.of_list
        (List.filteri (fun c _ -> not removed.(c)) (Array.to_list weight));
  }
