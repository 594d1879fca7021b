type t = { title : string; columns : string list; mutable rev_rows : string list list }

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: arity mismatch";
  t.rev_rows <- row :: t.rev_rows

let rows t = List.rev t.rev_rows

let pp ppf t =
  let all = t.columns :: rows t in
  let ncols = List.length t.columns in
  let widths = Array.make ncols 0 in
  let record row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record all;
  let pad i cell = cell ^ String.make (widths.(i) - String.length cell) ' ' in
  let render row = String.concat "  " (List.mapi pad row) in
  Format.fprintf ppf "== %s ==@." t.title;
  Format.fprintf ppf "%s@." (render t.columns);
  Format.fprintf ppf "%s@."
    (String.concat "  " (Array.to_list (Array.map (fun w -> String.make w '-') widths)));
  List.iter (fun row -> Format.fprintf ppf "%s@." (render row)) (rows t)

let csv_escape cell =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' cell) ^ "\""
  else cell

let to_csv t =
  let line row = String.concat "," (List.map csv_escape row) in
  String.concat "\n" (List.map line (t.columns :: rows t)) ^ "\n"

let print t =
  Format.printf "%a@." pp t
