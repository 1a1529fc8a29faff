/* A one-pass reader for the JSON Lines that corpora are written in.
 *
 * read_block(block, final, shape) splits a bytes block at '\n' and gives
 * one item for each line: the LawRecord that corpus._record_from_mapping
 * builds from the line's row, where the row has the common shape below;
 * else the dict that json.loads(line) returns, where the line is in the
 * subset below; else the line's bytes with its newline. The line after the
 * last '\n' is read only when final is nonzero, and the returned count of
 * bytes consumed tells the caller where the next block starts.
 *
 * A line is in the subset when json.loads reads it as an object, but for
 * a line with a carriage return, one nested more than MAX_DEPTH
 * containers deep, and one with a \u escape of a surrogate that is not
 * half of a pair. So strings may hold any UTF-8 character and any escape,
 * numbers may have any form json.loads reads, NaN and the infinities
 * among them, and spaces and tabs may stand around and between tokens.
 * Each string is validated and decoded in the pass that finds its end,
 * and each number read as json.loads reads it: int() of an integer's
 * digits, float() of any other number's text.
 *
 * One object parser, parse_members, has two sinks. The dict sink builds
 * the dict json.loads gives, with json.loads' rules: the last of repeated
 * members kept at the first one's place. The slot sink reads a row into a
 * fixed array of slots, one for each member name a record is read from,
 * and its date, where that is an object, into slots of its own: a name
 * that matches one byte for byte takes its slot, an escaped name is
 * decoded and then compared, the last of repeated members is kept (a null
 * too), and any other member's value is parsed, so that a bad one fails
 * the line, and dropped. So a row becomes a record with no dict, date
 * dict or member name made, hashed or freed. Each line is parsed by the
 * slot sink first. The two sinks fail on the same lines, which are given
 * back at once; only a row that is read but is outside the shape is
 * parsed again, by the dict sink.
 *
 * A row has the common shape when its id, title and content are str, the
 * id and title not blank to str.strip() and the id not in the load's id
 * set; its law_type (type where law_type is absent or null) is a str the
 * load's law-type memo holds; its lead and category (categories where
 * category is absent or null) are str, absent or null; its tags and
 * classes are lists of str, absent or null; and its date is a str in one
 * of the date forms, or an object of int (not bool) year, month and day,
 * the year in 1-9999, with a str raw or none. shape is corpus._record_shape's
 * tuple, and the rules that are not about types stay in Python, called
 * from here: the date forms in corpus._string_date and the calendar in
 * jalali_to_gregorian_year, whose MalformedDate gives the row back. A
 * record's id is added to the id set; a row given back adds nothing.
 *
 * Loaded with ctypes.PyDLL, so it runs holding the GIL. A failed parse
 * returns NULL with no exception set; NULL with an exception set is a
 * failed allocation, or an error other than MalformedDate from a call.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

#define MAX_DEPTH 32
#define NOT_READ 0x110000 /* past every code point */
#define CLOSING_QUOTE 0x110001

typedef struct {
    const unsigned char *at, *end;
    void *scratch; /* 4 bytes per byte of the line: room for a Py_UCS4 for each character */
} Parser;

static PyObject *parse_value(Parser *parser, int depth);

static void skip_space(Parser *parser)
{
    while (parser->at < parser->end && (*parser->at == ' ' || *parser->at == '\t'))
        parser->at++;
}

/* The value of the four hex digits at at, or NOT_READ. The byte that ends
 * the line is no hex digit, so none past it is read. */
static Py_UCS4 parse_hex(const unsigned char *at)
{
    Py_UCS4 code = 0;
    for (int i = 0; i < 4; i++) {
        unsigned int digit = at[i], lower = digit | 0x20;
        if (digit >= '0' && digit <= '9')
            digit -= '0';
        else if (lower >= 'a' && lower <= 'f')
            digit = lower - 'a' + 10;
        else
            return NOT_READ;
        code = code << 4 | digit;
    }
    return code;
}

/* The code point of the escape whose backslash is at *at, moving *at past
 * it: a pair of \u escapes of surrogates is one code point. NOT_READ for
 * an escape that json.loads rejects, and for a surrogate with no partner,
 * which json.loads keeps as it is and the loader refuses. */
static Py_UCS4 parse_escape(const unsigned char **at)
{
    const unsigned char *escape = *at;
    *at += 2;
    switch (escape[1]) {
    case '"':
    case '\\':
    case '/':
        return escape[1];
    case 'b':
        return '\b';
    case 'f':
        return '\f';
    case 'n':
        return '\n';
    case 'r':
        return '\r';
    case 't':
        return '\t';
    case 'u':
        break;
    default:
        return NOT_READ;
    }
    Py_UCS4 code = parse_hex(escape + 2);
    *at += 4;
    if (code < 0xD800 || code > 0xDFFF) /* NOT_READ too */
        return code;
    if (code > 0xDBFF || escape[6] != '\\' || escape[7] != 'u')
        return NOT_READ;
    Py_UCS4 low = parse_hex(escape + 8);
    if (low < 0xDC00 || low > 0xDFFF)
        return NOT_READ;
    *at += 6;
    return 0x10000 + ((code - 0xD800) << 10 | (low - 0xDC00));
}

/* The code point of the character or escape at *at in a string, moving
 * *at past it; CLOSING_QUOTE, not moving it, for the string's closing
 * quote, and NOT_READ for anything json.loads or the loader rejects.
 *
 * The byte at a line's end is its '\n' or the NUL that closes every bytes
 * object: a control character, which ends the string as a failure. So no
 * byte past it is read, and a sequence cut by it fails on its first
 * missing continuation byte. Always inlined: called, it costs the string
 * loop a fifth of its speed. */
static inline __attribute__((always_inline)) Py_UCS4 next_code(const unsigned char **at)
{
    const unsigned char *c = *at;
    Py_UCS4 lead = c[0], code;
    if (lead >= 0xC2 && lead <= 0xDF) { /* first: most of a Persian text's characters */
        if ((c[1] & 0xC0) != 0x80)
            return NOT_READ;
        *at += 2;
        return (lead & 0x1F) << 6 | (c[1] & 0x3F);
    }
    if (lead < 0x80) {
        if (lead == '"')
            return CLOSING_QUOTE;
        if (lead == '\\')
            return parse_escape(at);
        if (lead < 0x20)
            return NOT_READ;
        *at += 1;
        return lead;
    }
    if (lead >= 0xE0 && lead <= 0xEF) {
        if ((c[1] & 0xC0) != 0x80 || (c[2] & 0xC0) != 0x80)
            return NOT_READ;
        code = (lead & 0x0F) << 12 | (c[1] & 0x3F) << 6 | (c[2] & 0x3F);
        if (code < 0x800 || (code >= 0xD800 && code <= 0xDFFF))
            return NOT_READ;
        *at += 3;
        return code;
    }
    if (lead >= 0xF0 && lead <= 0xF4) {
        if ((c[1] & 0xC0) != 0x80 || (c[2] & 0xC0) != 0x80 || (c[3] & 0xC0) != 0x80)
            return NOT_READ;
        code = (lead & 0x07) << 18 | (c[1] & 0x3F) << 12 | (c[2] & 0x3F) << 6 | (c[3] & 0x3F);
        if (code < 0x10000 || code > 0x10FFFF)
            return NOT_READ;
        *at += 4;
        return code;
    }
    return NOT_READ; /* a continuation byte, a 2-byte overlong lead or no UTF-8 */
}

/* The string that starts at start, which holds a character past the Basic
 * Multilingual Plane: decoded again, into 4-byte slots. */
static PyObject *parse_wide_string(Parser *parser, const unsigned char *start)
{
    Py_UCS4 *out = parser->scratch;
    Py_ssize_t length = 0;
    const unsigned char *at = start;
    for (;;) {
        Py_UCS4 code = next_code(&at);
        if (code == CLOSING_QUOTE)
            break;
        if (code == NOT_READ)
            return NULL;
        out[length++] = code;
    }
    parser->at = at + 1;
    return PyUnicode_FromKindAndData(PyUnicode_4BYTE_KIND, out, length);
}

/* The end of the run of printable ASCII at at that needs no decoding: no quote, no backslash. */
static const unsigned char *ascii_end(const unsigned char *at)
{
    while (*at >= 0x20 && *at < 0x80 && *at != '"' && *at != '\\')
        at++;
    return at;
}

/* The str of the ASCII from start to end. One character is CPython's shared str of it, as json.loads gives. */
static PyObject *ascii_string(const unsigned char *start, const unsigned char *end)
{
    if (end - start == 1)
        return PyUnicode_FromOrdinal(*start);
    PyObject *text = PyUnicode_New(end - start, 127);
    if (text != NULL)
        memcpy(PyUnicode_1BYTE_DATA(text), start, (size_t)(end - start));
    return text;
}

/* The string whose opening quote is just before parser->at. */
static PyObject *parse_string(Parser *parser)
{
    const unsigned char *start = parser->at, *at = ascii_end(start);
    if (*at == '"') {
        parser->at = at + 1;
        return ascii_string(start, at);
    }
    Py_UCS2 *out = parser->scratch;
    Py_ssize_t length = 0;
    unsigned int bits = 0; /* the OR of every code point: below 0x80 or 0x100 exactly when the largest is */
    for (const unsigned char *ascii = start; ascii < at; ascii++)
        out[length++] = *ascii;
    for (;;) {
        Py_UCS4 code = next_code(&at);
        if (code > 0xFFFF) {
            if (code == CLOSING_QUOTE)
                break;
            return code == NOT_READ ? NULL : parse_wide_string(parser, start);
        }
        out[length++] = (Py_UCS2)code;
        bits |= code;
    }
    parser->at = at + 1;
    if (length == 1) /* shared below U+0100, as json.loads gives it */
        return PyUnicode_FromOrdinal(out[0]);
    PyObject *text = PyUnicode_New(length, bits);
    if (text == NULL)
        return NULL;
    if (bits < 0x100) {
        Py_UCS1 *data = PyUnicode_1BYTE_DATA(text);
        for (Py_ssize_t i = 0; i < length; i++)
            data[i] = (Py_UCS1)out[i];
    } else {
        memcpy(PyUnicode_2BYTE_DATA(text), out, (size_t)length * sizeof(Py_UCS2));
    }
    return text;
}

static const unsigned char *skip_digits(const unsigned char *at, const unsigned char *end)
{
    while (at < end && *at >= '0' && *at <= '9')
        at++;
    return at;
}

/* The number at parser->at: an int as int() reads its digits, or, with a
 * fraction or an exponent, a float as float() reads its text. */
static PyObject *parse_number(Parser *parser)
{
    const unsigned char *start = parser->at, *end = parser->end;
    const unsigned char *digits = start + (start < end && *start == '-');
    const unsigned char *at = skip_digits(digits, end);
    if (at == digits || (*digits == '0' && at - digits > 1))
        return NULL;
    const unsigned char *integer_end = at;
    if (at < end && *at == '.') {
        const unsigned char *fraction = at + 1;
        at = skip_digits(fraction, end);
        if (at == fraction)
            return NULL;
    }
    if (at < end && (*at == 'e' || *at == 'E')) {
        at++;
        at += at < end && (*at == '+' || *at == '-');
        at = skip_digits(at, end);
    }
    parser->at = at;
    if (at != integer_end) {
        /* An exponent with no digit is no number to json.loads, and float() stops before its 'e'. */
        char *stop;
        double value = PyOS_string_to_double((const char *)start, &stop, NULL);
        if (value == -1.0 && PyErr_Occurred())
            return NULL;
        return (const unsigned char *)stop == at ? PyFloat_FromDouble(value) : NULL;
    }
    if (at - digits > 18) {
        /* Past a long long's digits: int() of a copy that ends in NUL. Past int()'s limit on digits, a
         * ValueError, json.loads raises too. */
        PyObject *text = PyBytes_FromStringAndSize((const char *)start, at - start);
        if (text == NULL)
            return NULL;
        PyObject *value = PyLong_FromString(PyBytes_AS_STRING(text), NULL, 10);
        Py_DECREF(text);
        if (value == NULL && PyErr_ExceptionMatches(PyExc_ValueError))
            PyErr_Clear();
        return value;
    }
    long long value = 0;
    for (const unsigned char *digit = digits; digit < at; digit++)
        value = value * 10 + (*digit - '0');
    return PyLong_FromLongLong(digits == start ? value : -value);
}

/* Moves parser->at past word; 0, not moving it, where word is not there. */
static int skip_word(Parser *parser, const char *word)
{
    size_t length = strlen(word);
    if ((size_t)(parser->end - parser->at) < length || memcmp(parser->at, word, length) != 0)
        return 0;
    parser->at += length;
    return 1;
}

/* The row members a record is built from, its date object's members, then the fields of a LawRecord and of a
 * RecordDate, each in the order its dataclass lists them. */
enum { ID, TITLE, CONTENT, LEAD, TAGS, CLASSES, LAW_TYPE, TYPE, CATEGORY, CATEGORIES, DATE, RAW, YEAR, MONTH, DAY,
       N_MEMBERS, RECORD_FIELDS = N_MEMBERS, DATE_FIELDS = RECORD_FIELDS + 9, N_NAMES = DATE_FIELDS + 5 };
static const char *const NAMES[N_NAMES] = {
    "id", "title", "content", "lead", "tags", "classes", "law_type", "type", "category", "categories", "date",
    "raw", "year", "month", "day",
    "id", "title", "content", "law_type", "date", "lead", "tags", "classes", "category",
    "raw", "jalali_year", "jalali_month", "jalali_day", "gregorian_year",
};
static PyObject *KEYS[N_NAMES]; /* interned on the first call */
enum { OTHER_NAME = -1, NO_NAME = -2 };

/* What the slot sink keeps of a row: the last value of each member NAMES[ID..DATE] names, NULL where it is
 * absent. Where the last date is an object, date_object is set, values[DATE] is NULL and values[RAW..DAY] hold
 * the last value of each of the date's members. */
typedef struct {
    PyObject *values[N_MEMBERS];
    int date_object;
} Row;

/* Where parse_members puts an object's members: into dict, as json.loads does; or, where dict is NULL, into
 * row's values for the names NAMES[first..last), each other member's value dropped once it is parsed. */
typedef struct {
    PyObject *dict;
    Row *row;
    int first, last;
} Sink;

static int parse_members(Parser *parser, int depth, const Sink *sink);

/* The index of the name of NAMES[first..last) that is the length bytes at text, or OTHER_NAME. */
static int name_index(const unsigned char *text, Py_ssize_t length, int first, int last)
{
    for (int key = first; key < last; key++)
        if (PyUnicode_GET_LENGTH(KEYS[key]) == length
            && memcmp(PyUnicode_1BYTE_DATA(KEYS[key]), text, (size_t)length) == 0)
            return key;
    return OTHER_NAME;
}

/* The member name whose opening quote is just before parser->at, moving parser->at past its closing quote: its
 * index among NAMES[first..last), else OTHER_NAME, or NO_NAME where it is no string json.loads reads. An escaped
 * name is decoded before it is compared. Where text is not NULL, *text is set to the name: KEYS' entry for a
 * name that matches byte for byte, else a new str. */
static int parse_name(Parser *parser, int first, int last, PyObject **text)
{
    const unsigned char *start = parser->at, *end = ascii_end(start);
    PyObject *name;
    int index;
    if (*end == '"') {
        index = name_index(start, end - start, first, last);
        parser->at = end + 1;
        if (text == NULL)
            return index;
        name = index == OTHER_NAME ? ascii_string(start, end) : Py_NewRef(KEYS[index]);
    } else {
        name = parse_string(parser);
        if (name == NULL)
            return NO_NAME;
        index = PyUnicode_IS_ASCII(name)
                    ? name_index(PyUnicode_1BYTE_DATA(name), PyUnicode_GET_LENGTH(name), first, last)
                    : OTHER_NAME;
    }
    if (text == NULL)
        Py_DECREF(name);
    else if ((*text = name) == NULL)
        return NO_NAME;
    return index;
}

/* The value of a member, at parser->at inside depth containers, put into sink under key (the dict sink) or
 * index (the slot sink): 0, or -1 where it is no value json.loads reads. In the slot sink, a date that is an
 * object is parsed into the row's date members. */
static int parse_member(Parser *parser, int depth, const Sink *sink, PyObject *key, int index)
{
    if (index == DATE && sink->dict == NULL && parser->at < parser->end && *parser->at == '{' && depth < MAX_DEPTH) {
        Row *row = sink->row;
        for (int slot = DATE; slot <= DAY; slot++)
            Py_CLEAR(row->values[slot]);
        row->date_object = 1;
        parser->at++;
        Sink date = {NULL, row, RAW, DAY + 1};
        return parse_members(parser, depth + 1, &date);
    }
    PyObject *value = parse_value(parser, depth);
    if (value == NULL)
        return -1;
    if (sink->dict != NULL) {
        int failed = PyDict_SetItem(sink->dict, key, value);
        Py_DECREF(value);
        return failed;
    }
    if (index == OTHER_NAME) {
        Py_DECREF(value);
        return 0;
    }
    Py_XSETREF(sink->row->values[index], value);
    if (index == DATE)
        sink->row->date_object = 0;
    return 0;
}

/* The members of the object whose '{' is just before parser->at, inside depth containers, put into sink: 0, or
 * -1 where the object is not one json.loads reads. */
static int parse_members(Parser *parser, int depth, const Sink *sink)
{
    skip_space(parser);
    if (parser->at < parser->end && *parser->at == '}') {
        parser->at++;
        return 0;
    }
    for (;;) {
        if (parser->at >= parser->end || *parser->at != '"')
            return -1;
        parser->at++;
        PyObject *key = NULL;
        int index = parse_name(parser, sink->first, sink->last, sink->dict == NULL ? NULL : &key);
        if (index == NO_NAME)
            return -1;
        skip_space(parser);
        int failed = parser->at >= parser->end || *parser->at != ':';
        if (!failed) {
            parser->at++;
            skip_space(parser);
            failed = parse_member(parser, depth, sink, key, index);
        }
        Py_XDECREF(key);
        if (failed)
            return -1;
        skip_space(parser);
        if (parser->at < parser->end && *parser->at == ',') {
            parser->at++;
            skip_space(parser);
            continue;
        }
        if (parser->at < parser->end && *parser->at == '}') {
            parser->at++;
            return 0;
        }
        return -1;
    }
}

/* The dict json.loads gives for the object whose '{' is just before parser->at. A member name of NAMES is its
 * interned KEYS entry. */
static PyObject *parse_object(Parser *parser, int depth)
{
    Sink sink = {PyDict_New(), NULL, ID, N_MEMBERS};
    if (sink.dict != NULL && parse_members(parser, depth, &sink))
        Py_CLEAR(sink.dict);
    return sink.dict;
}

/* The array whose '[' is just before parser->at. */
static PyObject *parse_array(Parser *parser, int depth)
{
    PyObject *array = PyList_New(0);
    if (array == NULL)
        return NULL;
    skip_space(parser);
    if (parser->at < parser->end && *parser->at == ']') {
        parser->at++;
        return array;
    }
    for (;;) {
        PyObject *value = parse_value(parser, depth);
        if (value == NULL)
            break;
        int failed = PyList_Append(array, value);
        Py_DECREF(value);
        if (failed)
            break;
        skip_space(parser);
        if (parser->at < parser->end && *parser->at == ',') {
            parser->at++;
            skip_space(parser);
            continue;
        }
        if (parser->at < parser->end && *parser->at == ']') {
            parser->at++;
            return array;
        }
        break;
    }
    Py_DECREF(array);
    return NULL;
}

/* The value at parser->at, inside depth containers. */
static PyObject *parse_value(Parser *parser, int depth)
{
    if (parser->at >= parser->end)
        return NULL;
    switch (*parser->at) {
    case '"':
        parser->at++;
        return parse_string(parser);
    case '{':
    case '[':
        if (depth >= MAX_DEPTH)
            return NULL;
        return *parser->at++ == '{' ? parse_object(parser, depth + 1) : parse_array(parser, depth + 1);
    case 't':
        return skip_word(parser, "true") ? Py_NewRef(Py_True) : NULL;
    case 'f':
        return skip_word(parser, "false") ? Py_NewRef(Py_False) : NULL;
    case 'n':
        return skip_word(parser, "null") ? Py_NewRef(Py_None) : NULL;
    case 'N':
        return skip_word(parser, "NaN") ? PyFloat_FromDouble(NAN) : NULL;
    case 'I':
        return skip_word(parser, "Infinity") ? PyFloat_FromDouble(INFINITY) : NULL;
    case '-':
        if (parser->end - parser->at > 1 && parser->at[1] == 'I')
            return skip_word(parser, "-Infinity") ? PyFloat_FromDouble(-INFINITY) : NULL;
        return parse_number(parser);
    default:
        return parse_number(parser);
    }
}

/* What records are built with: the items of read_block's shape tuple. */
typedef struct {
    PyObject *record, *date, *gregorian_year, *string_date, *date_error, *law_types, *seen_ids;
} Shape;

/* The row's value of the member in slot, borrowed; NULL where it is absent or null. */
static PyObject *member(const Row *row, int slot)
{
    return row->values[slot] == Py_None ? NULL : row->values[slot];
}

/* Whether text holds a character that str.strip() keeps. */
static int not_blank(PyObject *text)
{
    int kind = PyUnicode_KIND(text);
    const void *data = PyUnicode_DATA(text);
    for (Py_ssize_t i = 0, length = PyUnicode_GET_LENGTH(text); i < length; i++)
        if (!Py_UNICODE_ISSPACE(PyUnicode_READ(kind, data, i)))
            return 1;
    return 0;
}

/* Whether value is absent or null, or a str: a lead or a category. */
static int is_text(PyObject *value)
{
    return value == NULL || PyUnicode_CheckExact(value);
}

/* Whether value is absent or null, or a list of str: tags or classes. */
static int is_string_list(PyObject *value)
{
    if (value == NULL)
        return 1;
    if (!PyList_CheckExact(value))
        return 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(value); i++)
        if (!PyUnicode_CheckExact(PyList_GET_ITEM(value, i)))
            return 0;
    return 1;
}

/* An instance of the dataclass type with its fields set in order by object.__setattr__, as the __init__
 * dataclasses write sets them, a frozen one's too, but with no Python frame; object.__new__ makes it. */
static PyObject *dataclass_instance(PyObject *type, int first_name, PyObject *const *values, int count)
{
    PyObject *no_args = PyTuple_New(0);
    if (no_args == NULL)
        return NULL;
    PyObject *self = ((PyTypeObject *)type)->tp_new((PyTypeObject *)type, no_args, NULL);
    Py_DECREF(no_args);
    for (int i = 0; self != NULL && i < count; i++)
        if (PyObject_GenericSetAttr(self, KEYS[first_name + i], values[i]))
            Py_CLEAR(self);
    return self;
}

/* The RecordDate that corpus.parse_record_date gives for the row's date: a str, or an object of int year, month
 * and day, the year in 1-9999, and a str raw or none. NULL with no exception set for no date or any other value,
 * and where the date's own code raises date_error: a string in none of the forms, or numbers that are no Jalali
 * date. */
static PyObject *record_date(const Row *row, const Shape *shape)
{
    PyObject *fields[5] = {NULL}, *date = NULL; /* raw, year, month, day, Gregorian year */
    if (!row->date_object) {
        PyObject *value = member(row, DATE);
        if (value == NULL || !PyUnicode_CheckExact(value))
            return NULL;
        PyObject *parts = PyObject_CallOneArg(shape->string_date, value);
        if (parts == NULL || parts == Py_None || !PyArg_ParseTuple(parts, "OOOO", &fields[0], &fields[1],
                                                                   &fields[2], &fields[3])) {
            Py_XDECREF(parts);
            return NULL;
        }
        for (int i = 0; i < 4; i++)
            Py_INCREF(fields[i]);
        Py_DECREF(parts);
    } else {
        PyObject *year = row->values[YEAR], *month = row->values[MONTH], *day = row->values[DAY];
        /* Exact: a bool is no year, and a float or a string one is read in Python. */
        if (year == NULL || month == NULL || day == NULL || !PyLong_CheckExact(year) || !PyLong_CheckExact(month)
            || !PyLong_CheckExact(day))
            return NULL;
        int overflow;
        long y = PyLong_AsLongAndOverflow(year, &overflow);
        if (overflow || y < 1 || y > 9999)
            return NULL;
        PyObject *raw = member(row, RAW);
        if (raw == NULL) {
            long m = PyLong_AsLongAndOverflow(month, &overflow);
            if (overflow)
                return NULL;
            long d = PyLong_AsLongAndOverflow(day, &overflow);
            if (overflow)
                return NULL;
            char text[64]; /* f"{y:04d}/{m:02d}/{d:02d}": a sign and up to 19 digits each */
            snprintf(text, sizeof text, "%04ld/%02ld/%02ld", y, m, d);
            raw = PyUnicode_FromString(text);
            if (raw == NULL)
                return NULL;
        } else if (PyUnicode_CheckExact(raw)) {
            Py_INCREF(raw);
        } else {
            return NULL;
        }
        fields[0] = raw;
        fields[1] = Py_NewRef(year);
        fields[2] = Py_NewRef(month);
        fields[3] = Py_NewRef(day);
    }
    fields[4] = PyObject_Vectorcall(shape->gregorian_year, fields + 1, 3, NULL);
    if (fields[4] != NULL)
        date = dataclass_instance(shape->date, DATE_FIELDS, fields, 5);
    else if (PyErr_ExceptionMatches(shape->date_error))
        PyErr_Clear();
    for (int i = 0; i < 5; i++)
        Py_XDECREF(fields[i]);
    return date;
}

/* The LawRecord that corpus._record_from_mapping builds from the row, or NULL with no exception set where the
 * row is outside the shape read here: str id, title and content, the id and title not blank and the id not in
 * seen_ids, a str law type the law_types memo holds, lead and category str or none, tags and classes lists of
 * str or none, and a date that record_date reads. The id is added to seen_ids only with the record. */
static PyObject *build_record(const Row *row, const Shape *shape)
{
    PyObject *id = member(row, ID), *title = member(row, TITLE), *content = member(row, CONTENT);
    PyObject *law_type = member(row, LAW_TYPE), *lead = member(row, LEAD), *category = member(row, CATEGORY);
    PyObject *tags = member(row, TAGS), *classes = member(row, CLASSES);
    if (law_type == NULL)
        law_type = member(row, TYPE);
    if (category == NULL)
        category = member(row, CATEGORIES);
    if (id == NULL || title == NULL || content == NULL || law_type == NULL || !PyUnicode_CheckExact(id)
        || !PyUnicode_CheckExact(title) || !PyUnicode_CheckExact(content) || !PyUnicode_CheckExact(law_type)
        || !not_blank(id) || !not_blank(title) || !is_text(lead) || !is_text(category) || !is_string_list(tags)
        || !is_string_list(classes))
        return NULL;
    PyObject *parsed_type = PyDict_GetItemWithError(shape->law_types, law_type);
    if (parsed_type == NULL || PySet_Contains(shape->seen_ids, id)) /* 1, or -1 with an exception set */
        return NULL;
    PyObject *record = NULL, *fields[9] = {id, title, content, parsed_type, NULL, lead, NULL, NULL, category};
    if ((fields[4] = record_date(row, shape)) != NULL) {
        /* Exact-size lists, as list() copies them; a list grown while parsing keeps spare slots. */
        fields[5] = lead == NULL ? PyUnicode_New(0, 0) : Py_NewRef(lead);
        fields[6] = tags == NULL ? PyList_New(0) : PyList_GetSlice(tags, 0, PyList_GET_SIZE(tags));
        fields[7] = classes == NULL ? PyList_New(0) : PyList_GetSlice(classes, 0, PyList_GET_SIZE(classes));
        fields[8] = category == NULL ? PyUnicode_New(0, 0) : Py_NewRef(category);
        if (fields[5] != NULL && fields[6] != NULL && fields[7] != NULL && fields[8] != NULL) {
            record = dataclass_instance(shape->record, RECORD_FIELDS, fields, 9);
            if (record != NULL && PySet_Add(shape->seen_ids, id))
                Py_CLEAR(record);
        }
        for (int i = 4; i < 9; i++)
            Py_XDECREF(fields[i]);
    }
    return record;
}

PyObject *read_block(PyObject *block, int final, PyObject *shape_tuple)
{
    Shape shape;
    if (!PyBytes_Check(block)) {
        PyErr_SetString(PyExc_TypeError, "read_block takes a bytes block");
        return NULL;
    }
    if (!PyTuple_Check(shape_tuple)
        || !PyArg_ParseTuple(shape_tuple, "O!O!OOOO!O!:read_block", &PyType_Type, &shape.record, &PyType_Type,
                             &shape.date, &shape.gregorian_year, &shape.string_date, &shape.date_error,
                             &PyDict_Type, &shape.law_types, &PySet_Type, &shape.seen_ids)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "read_block takes a tuple of what records are built with");
        return NULL;
    }
    for (int key = 0; key < N_NAMES; key++)
        if (KEYS[key] == NULL && (KEYS[key] = PyUnicode_InternFromString(NAMES[key])) == NULL)
            return NULL;
    const unsigned char *data = (const unsigned char *)PyBytes_AS_STRING(block);
    Py_ssize_t size = PyBytes_GET_SIZE(block), start = 0, capacity = 0;
    Parser parser = {NULL, NULL, NULL};
    PyObject *items = PyList_New(0);
    if (items == NULL)
        return NULL;
    while (start < size) {
        const unsigned char *newline = memchr(data + start, '\n', (size_t)(size - start));
        if (newline == NULL && !final)
            break;
        Py_ssize_t stop = newline == NULL ? size : newline - data, next = newline == NULL ? size : stop + 1;
        PyObject *item = NULL;
        Py_ssize_t first = start;
        while (first < stop && (data[first] == ' ' || data[first] == '\t'))
            first++;
        if (first < stop && data[first] == '{') {
            if (stop - start > capacity) {
                PyMem_Free(parser.scratch);
                capacity = stop - start;
                parser.scratch = PyMem_Malloc((size_t)capacity * sizeof(Py_UCS4));
                if (parser.scratch == NULL) {
                    PyErr_NoMemory();
                    goto fail;
                }
            }
            /* The slot sink first. The dict sink fails on the same lines, so it parses again only a row that
             * is read but is outside the shape. */
            Row row = {{NULL}, 0};
            Sink slots = {NULL, &row, ID, DATE + 1};
            parser.at = data + first + 1;
            parser.end = data + stop;
            int parsed = parse_members(&parser, 1, &slots) == 0;
            if (parsed) {
                skip_space(&parser);
                parsed = parser.at == parser.end;
            }
            if (parsed && (item = build_record(&row, &shape)) == NULL && !PyErr_Occurred()) {
                parser.at = data + first + 1;
                item = parse_object(&parser, 1);
            }
            for (int slot = 0; slot < N_MEMBERS; slot++)
                Py_XDECREF(row.values[slot]);
            if (PyErr_Occurred()) {
                Py_XDECREF(item);
                goto fail;
            }
        }
        if (item == NULL) {
            item = PyBytes_FromStringAndSize((const char *)data + start, next - start);
            if (item == NULL)
                goto fail;
        }
        int failed = PyList_Append(items, item);
        Py_DECREF(item);
        if (failed)
            goto fail;
        start = next;
    }
    PyMem_Free(parser.scratch);
    return Py_BuildValue("(Nn)", items, start);
fail:
    PyMem_Free(parser.scratch);
    Py_DECREF(items);
    return NULL;
}
