(* Directory schemas (Definition 3.1).

   A schema is a 4-tuple (C, A, tau, alpha): class names, attributes, a
   typing function for attributes, and the allowed-attribute sets of each
   class.  Attributes are typed independently of classes, so an attribute
   shared by several classes has one type everywhere — the key difference
   from relation/class-centric models the paper points out. *)

type t = {
  attr_types : (string, Value.ty) Hashtbl.t;  (* tau *)
  class_attrs : (string, (string * Value.ty) list) Hashtbl.t;
      (* alpha, each allowed attribute with its type *)
}

let object_class = "objectClass"

let is_identifier s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       s

let empty () =
  let t = { attr_types = Hashtbl.create 64; class_attrs = Hashtbl.create 16 } in
  (* Definition 3.1(b,c): objectClass is always present, typed string. *)
  Hashtbl.replace t.attr_types object_class Value.T_string;
  t

let declare_attr t name ty =
  if not (is_identifier name) then
    invalid_arg (Printf.sprintf "Schema.declare_attr: bad attribute name %S" name);
  (match Hashtbl.find_opt t.attr_types name with
  | Some ty' when ty' <> ty ->
      invalid_arg
        (Printf.sprintf "Schema.declare_attr: %s already typed %s" name
           (Value.ty_to_string ty'))
  | Some _ | None -> ());
  Hashtbl.replace t.attr_types name ty

let declare_class t name attrs =
  if not (is_identifier name) then
    invalid_arg (Printf.sprintf "Schema.declare_class: bad class name %S" name);
  List.iter
    (fun a ->
      if not (Hashtbl.mem t.attr_types a) then
        invalid_arg
          (Printf.sprintf "Schema.declare_class: undeclared attribute %S" a))
    attrs;
  (* objectClass is an allowed attribute of every class. *)
  let attrs =
    if List.mem object_class attrs then attrs else object_class :: attrs
  in
  (* An attribute's type never changes once declared, so it is stored
     beside the name: a validated entry's attributes are looked up in
     its classes' lists alone. *)
  Hashtbl.replace t.class_attrs name
    (List.map (fun a -> (a, Hashtbl.find t.attr_types a)) (List.sort_uniq String.compare attrs))

let attr_type t name = Hashtbl.find_opt t.attr_types name
let has_class t name = Hashtbl.mem t.class_attrs name
let allowed_typed t cls = Hashtbl.find_opt t.class_attrs cls
let allowed_attrs t cls = Option.map (List.map fst) (allowed_typed t cls)

let classes t =
  Hashtbl.fold (fun c _ acc -> c :: acc) t.class_attrs []
  |> List.sort String.compare

let attrs t =
  Hashtbl.fold (fun a ty acc -> (a, ty) :: acc) t.attr_types []
  |> List.sort Stdlib.compare

(* Is attribute [a] allowed by at least one of [class_names]
   (Definition 3.2(c)1)? *)
let attr_allowed_by t ~class_names a =
  List.exists
    (fun c ->
      match allowed_typed t c with
      | Some allowed -> List.mem_assoc a allowed
      | None -> false)
    class_names

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter (fun (a, ty) -> Fmt.pf ppf "attr %s : %s@," a (Value.ty_to_string ty)) (attrs t);
  List.iter
    (fun c ->
      Fmt.pf ppf "class %s (%s)@," c
        (String.concat ", " (Option.value ~default:[] (allowed_attrs t c))))
    (classes t);
  Fmt.pf ppf "@]"
