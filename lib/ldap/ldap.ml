(* The LDAP query language as formalized in the paper (Sections 4.2, 8.1).

   An LDAP query has a *single* base entry dn and a *single* scope; only
   the atomic filters (not whole queries) may be combined with the
   boolean operators and (&), or (|), not (!) — "the one material
   difference" from L0.  Theorem 8.1's first inclusion (LDAP < L0) is
   witnessed by queries like Example 4.1, whose operands need different
   bases.

   The filter syntax follows RFC 2254: (&(objectClass=person)(uid=jag...)). *)

type filter =
  | F_atom of Afilter.t
  | F_and of filter list
  | F_or of filter list
  | F_not of filter

type query = { base : Dn.t; scope : Ast.scope; filter : filter }

let rec matches f e =
  match f with
  | F_atom a -> Afilter.matches a e
  | F_and fs -> List.for_all (fun f -> matches f e) fs
  | F_or fs -> List.exists (fun f -> matches f e) fs
  | F_not f -> not (matches f e)

(* Reference evaluation over the instance (mirrors Definition 4.1). *)
let in_scope q e =
  let dn = Entry.dn e in
  match q.scope with
  | Ast.Base -> Dn.equal dn q.base
  | Ast.One -> Dn.equal dn q.base || Dn.is_parent_of ~parent:q.base ~child:dn
  | Ast.Sub -> Dn.is_self_or_descendant_of ~descendant:dn ~ancestor:q.base

let eval instance q =
  Instance.fold
    (fun acc e -> if in_scope q e && matches q.filter e then e :: acc else acc)
    [] instance
  |> List.rev

(* Indexed evaluation: one scan of the base's resolved scope. *)
let eval_indexed dn_index q =
  Dn_index.scan dn_index q.scope
    (Instance.resolve (Dn_index.instance dn_index) q.base)
    ~keep:(matches q.filter)

(* --- Translations (Theorem 8.1) ---------------------------------------- *)

(* Every LDAP query is expressible in L0: push the boolean structure of
   the filter up to query level, using set difference against the
   whole-scope query for negation. *)
let to_l0 q =
  let atom f = Ast.Atomic { Ast.base = q.base; scope = q.scope; filter = f } in
  let universe = atom (Afilter.Present Schema.object_class) in
  let rec conv = function
    | F_atom a -> atom a
    | F_not f -> Ast.Diff (universe, conv f)
    | F_and [] -> universe
    | F_and (f :: fs) ->
        List.fold_left (fun acc f -> Ast.And (acc, conv f)) (conv f) fs
    | F_or [] -> Ast.Diff (universe, universe)
    | F_or (f :: fs) ->
        List.fold_left (fun acc f -> Ast.Or (acc, conv f)) (conv f) fs
  in
  conv q.filter

(* Partial inverse: an L0 query collapses to a single LDAP query exactly
   when all its atomic subqueries share one base and scope. *)
let of_l0 (ast : Ast.t) =
  let rec conv = function
    | Ast.Atomic a -> Some (a.Ast.base, a.Ast.scope, F_atom a.Ast.filter)
    | Ast.And (q1, q2) -> combine q1 q2 (fun f1 f2 -> F_and [ f1; f2 ])
    | Ast.Or (q1, q2) -> combine q1 q2 (fun f1 f2 -> F_or [ f1; f2 ])
    | Ast.Diff (q1, q2) -> combine q1 q2 (fun f1 f2 -> F_and [ f1; F_not f2 ])
    | Ast.Hier _ | Ast.Hier3 _ | Ast.Gsel _ | Ast.Eref _ -> None
  and combine q1 q2 mk =
    match (conv q1, conv q2) with
    | Some (b1, s1, f1), Some (b2, s2, f2)
      when Dn.equal b1 b2 && s1 = s2 ->
        Some (b1, s1, mk f1 f2)
    | _ -> None
  in
  Option.map (fun (base, scope, filter) -> { base; scope; filter }) (conv ast)

(* --- RFC 2254-style concrete syntax ------------------------------------- *)

exception Parse_error of string

let rec filter_to_string = function
  | F_atom a -> "(" ^ Afilter.to_string a ^ ")"
  | F_and fs -> "(&" ^ String.concat "" (List.map filter_to_string fs) ^ ")"
  | F_or fs -> "(|" ^ String.concat "" (List.map filter_to_string fs) ^ ")"
  | F_not f -> "(!" ^ filter_to_string f ^ ")"

let to_string q =
  Printf.sprintf "ldap:///%s?%s?%s" (Dn.to_string q.base)
    (Ast.scope_to_string q.scope)
    (filter_to_string q.filter)

let filter_of_string ?schema s =
  let pos = ref 0 in
  let n = String.length s in
  let fail msg = raise (Parse_error (Printf.sprintf "at %d: %s" !pos msg)) in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do incr pos done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let rec parse () =
    expect '(';
    skip_ws ();
    let f =
      match (if !pos < n then Some s.[!pos] else None) with
      | Some '&' ->
          incr pos;
          F_and (parse_list ())
      | Some '|' ->
          incr pos;
          F_or (parse_list ())
      | Some '!' ->
          incr pos;
          F_not (parse ())
      | Some _ ->
          let start = !pos in
          while !pos < n && s.[!pos] <> ')' && s.[!pos] <> '(' do incr pos done;
          let text = String.trim (String.sub s start (!pos - start)) in
          (try F_atom (Afilter.of_string ?schema text)
           with Afilter.Parse_error m -> fail m)
      | None -> fail "unexpected end of filter"
    in
    expect ')';
    f
  and parse_list () =
    skip_ws ();
    if !pos < n && s.[!pos] = '(' then
      let f = parse () in
      f :: parse_list ()
    else []
  in
  let f = parse () in
  skip_ws ();
  if !pos <> n then fail "trailing text";
  f

(* Parse an LDAP URL-style query: ldap:///<base>?<scope>?<filter>
   (RFC 2255 shape, host omitted). *)
let of_string ?schema str =
  let str = String.trim str in
  let prefix = "ldap:///" in
  let body =
    if String.length str >= String.length prefix
       && String.sub str 0 (String.length prefix) = prefix
    then String.sub str (String.length prefix) (String.length str - String.length prefix)
    else str
  in
  match String.split_on_char '?' body with
  | [ base; scope; filter ] ->
      let base = Dn.of_string base in
      let scope =
        match Ast.scope_of_string (String.trim scope) with
        | Some s -> s
        | None -> raise (Parse_error ("bad scope " ^ scope))
      in
      { base; scope; filter = filter_of_string ?schema (String.trim filter) }
  | _ -> raise (Parse_error "expected <base>?<scope>?<filter>")
